(* Configuration of the multiprocessor adaptation strategies.

   Each shared resource the paper identifies carries its strategy here, so
   a VM can be assembled as baseline Berkeley Smalltalk (single-threaded,
   no synchronization at all), as Multiprocessor Smalltalk with the
   published strategy assignment (Table 3), or as any of the ablation
   variants the paper discusses:

   - the method cache serialized with a shared lock (the configuration the
     paper found "much too slow") versus replicated per processor;
   - the free-context list serialized versus replicated (the 160% -> 65%
     improvement);
   - allocation serialized (published MS) versus a replicated new-object
     space (the improvement the paper proposes in section 4);
   - running Processes removed from the ready queue (BS behaviour) versus
     kept in it (the MS reorganization). *)

type cache_strategy = Cache_replicated | Cache_shared_locked
type context_strategy = Ctx_replicated | Ctx_shared_locked | Ctx_disabled
type alloc_strategy = Alloc_serialized | Alloc_replicated_eden

(* E16: the ready queue serialized behind the single scheduler lock
   (published MS) versus replicated into per-processor deques with work
   stealing. *)
type scheduler_strategy = Sched_locked | Sched_stealing

(* E17: what an idle processor with nothing ready does in the one engine
   loop ([Vm.run_engine]).  [Engine_scan] polls: the processor is
   re-stepped every 10 Delay quanta, as the paper's idle interpreters
   poll the ready queue.  [Engine_calendar] parks it off the pending-heap until a wakeup event
   (ready work, input, timer).  Selection, timers and the fast path are
   shared. *)
type engine_strategy = Engine_scan | Engine_calendar

type t = {
  processors : int;
  locks_enabled : bool;          (* false: baseline BS, no synchronization *)
  method_cache : cache_strategy;
  free_contexts : context_strategy;
  allocation : alloc_strategy;
  scheduler : scheduler_strategy;  (* E16: locked queue vs work stealing *)
  engine : engine_strategy;        (* E17: idle processors poll or park *)
  keep_running_in_queue : bool;  (* the MS reorganization *)
  old_words : int;
  eden_words : int;              (* the paper's s: 80 KB by default *)
  survivor_words : int;
  tenure_age : int;
  (* section 3.1: "it may be possible to apply multiple processors to the
     garbage collection task" — scavenge work parallelised over this many
     processors (1 = the published MS) *)
  scavenge_workers : int;
  cost : Cost_model.t;
  (* serialization checking: Off for production runs; Report accumulates
     violations into the instrumentation report; Strict raises *)
  sanitize : Sanitizer.mode;
  (* fault injection for the schedule explorer's self-check: a shared
     free-context list whose take/give skip the lock bracket — the
     guarded-mutation bug the sanitizer must catch *)
  debug_skip_ctx_lock : bool;
  (* the same self-check idea for E16: deque operations run outside their
     lock brackets, so the sanitizer sees unguarded steal-path mutations *)
  debug_unlocked_steal : bool;
  (* spin watchdog, in Delay quanta: a contended acquire that would wait
     more than [watchdog_quanta] quanta raises Fault.Deadlock_suspected
     instead of spinning forever; 0 (the default everywhere) disables it
     and leaves the lock timeline bit-identical to the seed.
     [backoff_quanta] is the number of fixed-interval retries before the
     retry interval starts doubling; 0 keeps the fixed spin. *)
  watchdog_quanta : int;
  backoff_quanta : int;
  (* E18: the incremental old-space mark-sweep collector.  When enabled,
     bounded mark/sweep slices run at step boundaries, each charged at
     most [major_budget] cycles; [Image_full] becomes a last resort after
     a forced cycle completion. *)
  major_enabled : bool;
  major_budget : int;
  (* self-check for the schedule explorer: the write barrier is replaced
     by a probe that reports (instead of shading) every old-pointer
     store made while marking is in flight — the sanitizer must catch
     the broken configuration deterministically *)
  debug_skip_major_barrier : bool;
}

(* 80 KB eden as in the paper (section 3.1), expressed in 8-byte words. *)
let default_eden_words = 80 * 1024 / 8

let baseline_bs ?(cost = Cost_model.firefly) () = {
  processors = 1;
  locks_enabled = false;
  method_cache = Cache_shared_locked;   (* one interpreter, lock disabled *)
  free_contexts = Ctx_shared_locked;
  allocation = Alloc_serialized;
  scheduler = Sched_locked;
  engine = Engine_scan;
  keep_running_in_queue = false;        (* BS removes the running Process *)
  old_words = 2 * 1024 * 1024;
  eden_words = default_eden_words;
  survivor_words = 4 * 1024;
  tenure_age = 4;
  scavenge_workers = 1;
  cost;
  sanitize = Sanitizer.Off;
  debug_skip_ctx_lock = false;
  debug_unlocked_steal = false;
  watchdog_quanta = 0;
  backoff_quanta = 0;
  major_enabled = false;
  major_budget = 25_000;
  debug_skip_major_barrier = false;
}

(* Multiprocessor Smalltalk as published: serialization for allocation,
   GC, entry tables, scheduling and I/O; replication for the interpreters,
   method caches and free-context lists; the scheduler reorganization. *)
let ms ?(processors = 5) ?(cost = Cost_model.firefly) () =
  { (baseline_bs ~cost ()) with
    processors;
    locks_enabled = true;
    method_cache = Cache_replicated;
    free_contexts = Ctx_replicated;
    keep_running_in_queue = true }

(* A fast uniform-cost configuration for unit tests. *)
let testing ?(processors = 1) () =
  let base =
    if processors = 1 then baseline_bs ~cost:Cost_model.uniform ()
    else ms ~processors ~cost:Cost_model.uniform ()
  in
  { base with old_words = 512 * 1024; eden_words = 8 * 1024;
              survivor_words = 2 * 1024 }
