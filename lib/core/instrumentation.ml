(* Instrumentation (the paper's section 6: "we plan to add sufficient
   instrumentation to MS to gather data about ... contention for
   resources").

   Every shared resource in the simulation already counts its traffic;
   this module gathers the counters into one report: lock acquisitions,
   contention and spin time; per-interpreter execution statistics; cache
   and free-list effectiveness; storage and scavenging totals; device
   queues. *)

type lock_row = {
  lock_name : string;
  enabled : bool;
  acquisitions : int;
  contended : int;
  spin_cycles : int;
}

type interp_row = {
  processor : int;
  steps : int;
  sends : int;
  cache_hits : int;
  cache_misses : int;
  ctx_reuses : int;
  ctx_fresh : int;
  switches : int;
  gc_wait : int;
}

(* One parallel-scavenge worker's accumulated totals (workers > 1). *)
type scavenge_worker_row = {
  worker : int;
  copied_objects : int;
  copied_words : int;
  busy_cycles : int;
  idle_cycles : int;
}

(* Work-stealing traffic (E16) — all zero under the locked scheduler. *)
type steal_stats = {
  stealing : bool;           (* the stealing scheduler was configured *)
  local_picks : int;         (* picks satisfied from the own deque *)
  steals : int;              (* picks satisfied from a victim deque *)
  failed_steals : int;
  migrations : int;          (* stolen processes re-homed (MS mode) *)
  stolen_from : int list;    (* per victim processor *)
}

(* Incremental old-space collection (E18) — present only when the
   collector is configured. *)
type major_stats = {
  major_cycles : int;           (* complete mark-sweep cycles *)
  major_slices : int;
  major_slice_cycles : int;     (* collector work, summed *)
  major_max_slice : int;
  major_budget : int;
  major_overruns : int;         (* slices that ran past the budget *)
  major_reclaimed_objects : int;
  major_reclaimed_words : int;
  major_forced_completions : int;
  major_forced_allocs : int;    (* allocations saved from Image_full *)
  major_barrier_greys : int;
  major_alloc_marks : int;
  major_free_list_hits : int;
  major_free_reused_words : int;
  major_near_exhaustion : bool; (* old space over 90% occupied now *)
}

type report = {
  locks : lock_row list;
  interps : interp_row list;
  scavenges : int;
  scavenge_cycles : int;
  par_scavenges : int;
  par_rounds : int;
  par_coord_cycles : int;
  scavenge_workers : scavenge_worker_row list;
  words_allocated : int;
  words_copied : int;
  words_tenured : int;
  remembered : int;
  display_commands : int;
  display_wait : int;
  input_polls : int;
  total_cycles : int;
  major : major_stats option;
  steal : steal_stats;
  sanitizer_mode : Sanitizer.mode;
  violation_count : int;
  violations : string list;
  (* fault recovery — all zero except under fault campaigns.  The lock
     table above deliberately excludes these cycles: [spin_cycles] there
     is genuine contention only, so the E-series numbers stay clean. *)
  crashes_delivered : int;
  failovers : int;
  ctx_abandons : int;
  degraded_scavenges : int;
  vp_fault_cycles : int;      (* injected transient-stall time, summed *)
  lock_fault_spin : int;      (* waiter spin caused by holder faults *)
  lock_backoff : int;         (* extra delay from exponential backoff *)
  lock_fault_stall : int;     (* injected holder-stall time *)
  device_fault_stall : int;   (* injected device-timeout time *)
}

let lock_row l = {
  lock_name = Spinlock.name l;
  enabled = Spinlock.enabled l;
  acquisitions = Spinlock.acquisitions l;
  contended = Spinlock.contended l;
  spin_cycles = Spinlock.spin_cycles l;
}

let gather_major (vm : Vm.t) mj =
  { major_cycles = Major.cycles_completed mj;
    major_slices = Major.slices mj;
    major_slice_cycles = Major.slice_cycles_total mj;
    major_max_slice = Major.max_slice mj;
    major_budget = Major.budget mj;
    major_overruns = Major.overruns mj;
    major_reclaimed_objects = Major.reclaimed_objects mj;
    major_reclaimed_words = Major.reclaimed_words mj;
    major_forced_completions = Major.forced_completions mj;
    major_forced_allocs = vm.Vm.major_forced_allocs;
    major_barrier_greys = Major.barrier_greys mj;
    major_alloc_marks = Major.alloc_marks mj;
    major_free_list_hits = Heap.free_list_hits vm.Vm.heap;
    major_free_reused_words = Heap.free_reused_words vm.Vm.heap;
    major_near_exhaustion = Major.near_exhaustion mj }

let gather (vm : Vm.t) =
  let sh = vm.Vm.shared in
  (* every kernel lock the VM assembled, in assembly order — including the
     shared method-cache and free-context locks the old hardcoded list
     missed *)
  let locks = List.map lock_row vm.Vm.locks in
  let interps =
    Array.to_list
      (Array.mapi
         (fun i st ->
           { processor = i;
             steps = st.State.steps;
             sends = st.State.sends;
             cache_hits = Method_cache.hits st.State.mcache;
             cache_misses = Method_cache.misses st.State.mcache;
             ctx_reuses = Free_contexts.reuses st.State.free_ctxs;
             ctx_fresh = Free_contexts.fresh_allocations st.State.free_ctxs;
             switches = st.State.ctx_switches;
             gc_wait = (Machine.vp vm.Vm.machine i).Machine.gc_wait_cycles })
         vm.Vm.states)
  in
  let scavenge_workers =
    (* workers that never ran (all-zero rows) are elided *)
    List.filter
      (fun w ->
        w.copied_objects <> 0 || w.copied_words <> 0 || w.busy_cycles <> 0
        || w.idle_cycles <> 0)
      (Array.to_list
         (Array.mapi
            (fun i _ ->
              { worker = i;
                copied_objects = vm.Vm.par_copied_objects.(i);
                copied_words = vm.Vm.par_copied_words.(i);
                busy_cycles = vm.Vm.par_busy_cycles.(i);
                idle_cycles = vm.Vm.par_idle_cycles.(i) })
            vm.Vm.par_copied_words))
  in
  { locks;
    interps;
    scavenges = Heap.scavenge_count vm.Vm.heap;
    scavenge_cycles = vm.Vm.scavenge_cycles;
    par_scavenges = vm.Vm.par_scavenges;
    par_rounds = vm.Vm.par_rounds;
    par_coord_cycles = vm.Vm.par_coord_cycles;
    scavenge_workers;
    words_allocated = Heap.words_allocated vm.Vm.heap;
    words_copied = Heap.words_copied_total vm.Vm.heap;
    words_tenured = Heap.tenured_words_total vm.Vm.heap;
    remembered = Heap.remembered_count vm.Vm.heap;
    display_commands = Devices.display_commands sh.State.display;
    display_wait = Devices.display_producer_wait sh.State.display;
    input_polls = Devices.input_polls sh.State.input;
    total_cycles = Vm.cycles vm;
    major = Option.map (gather_major vm) vm.Vm.major;
    steal =
      (let sched = sh.State.sched in
       { stealing = sched.Scheduler.strategy = Scheduler.Stealing;
         local_picks = Scheduler.local_picks sched;
         steals = Scheduler.steals sched;
         failed_steals = Scheduler.failed_steals sched;
         migrations = Scheduler.migrations sched;
         stolen_from = Array.to_list (Scheduler.stolen_from sched) });
    sanitizer_mode = Sanitizer.mode sh.State.sanitizer;
    violation_count = Sanitizer.violation_count sh.State.sanitizer;
    violations = Sanitizer.violations sh.State.sanitizer;
    crashes_delivered = vm.Vm.crashes_delivered;
    failovers = Scheduler.failovers sh.State.sched;
    ctx_abandons =
      Array.fold_left
        (fun n st -> n + Free_contexts.abandons st.State.free_ctxs)
        0 vm.Vm.states;
    degraded_scavenges = vm.Vm.degraded_scavenges;
    vp_fault_cycles =
      (let n = ref 0 in
       for i = 0 to Machine.processors vm.Vm.machine - 1 do
         n := !n + (Machine.vp vm.Vm.machine i).Machine.fault_cycles
       done;
       !n);
    lock_fault_spin =
      List.fold_left (fun n l -> n + Spinlock.fault_spin_cycles l) 0 vm.Vm.locks;
    lock_backoff =
      List.fold_left (fun n l -> n + Spinlock.backoff_cycles l) 0 vm.Vm.locks;
    lock_fault_stall =
      List.fold_left (fun n l -> n + Spinlock.fault_stall_cycles l) 0
        vm.Vm.locks;
    device_fault_stall = Devices.display_fault_stall_cycles sh.State.display }

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b

let print fmt r =
  Format.fprintf fmt "Instrumentation report (%d cycles = %.2f simulated s)@."
    r.total_cycles
    (float_of_int r.total_cycles /. 1_000_000.0);
  Format.fprintf fmt "@.Locks:@.";
  Format.fprintf fmt "  %-22s %12s %10s %7s %12s@." "resource" "acquisitions"
    "contended" "rate" "spin cycles";
  List.iter
    (fun l ->
      if l.enabled then
        Format.fprintf fmt "  %-22s %12d %10d %6.1f%% %12d@." l.lock_name
          l.acquisitions l.contended
          (pct l.contended l.acquisitions)
          l.spin_cycles
      else Format.fprintf fmt "  %-22s %12s@." l.lock_name "(disabled)")
    r.locks;
  Format.fprintf fmt "@.Interpreters:@.";
  Format.fprintf fmt "  %-4s %10s %9s %11s %10s %9s %9s@." "proc" "bytecodes"
    "sends" "cache-hit%" "ctx-reuse%" "switches" "gc-wait";
  List.iter
    (fun i ->
      Format.fprintf fmt "  %-4d %10d %9d %10.1f%% %9.1f%% %9d %9d@."
        i.processor i.steps i.sends
        (pct i.cache_hits (i.cache_hits + i.cache_misses))
        (pct i.ctx_reuses (i.ctx_reuses + i.ctx_fresh))
        i.switches i.gc_wait)
    r.interps;
  Format.fprintf fmt "@.Storage:@.";
  Format.fprintf fmt
    "  %d scavenges (%d cycles total); %d words allocated, %d copied, %d \
     tenured; %d remembered objects@."
    r.scavenges r.scavenge_cycles r.words_allocated r.words_copied
    r.words_tenured r.remembered;
  if r.par_scavenges > 0 then begin
    Format.fprintf fmt "@.Parallel scavenging:@.";
    Format.fprintf fmt
      "  %d parallel collections, %d grey rounds, %d coordination cycles@."
      r.par_scavenges r.par_rounds r.par_coord_cycles;
    Format.fprintf fmt "  %-6s %10s %10s %12s %12s %6s@." "worker" "objects"
      "words" "busy cycles" "idle cycles" "idle%";
    List.iter
      (fun w ->
        Format.fprintf fmt "  %-6d %10d %10d %12d %12d %5.1f%%@." w.worker
          w.copied_objects w.copied_words w.busy_cycles w.idle_cycles
          (pct w.idle_cycles (w.busy_cycles + w.idle_cycles)))
      r.scavenge_workers
  end;
  (match r.major with
   | None -> ()
   | Some m ->
       Format.fprintf fmt "@.Incremental old-space collection:@.";
       Format.fprintf fmt
         "  %d cycle(s) in %d slice(s); %d collector cycles total; max \
          slice %d vs budget %d; %d overrun(s)@."
         m.major_cycles m.major_slices m.major_slice_cycles m.major_max_slice
         m.major_budget m.major_overruns;
       Format.fprintf fmt
         "  reclaimed %d object(s), %d words; free-list hits %d (%d words \
          reused)@."
         m.major_reclaimed_objects m.major_reclaimed_words
         m.major_free_list_hits m.major_free_reused_words;
       Format.fprintf fmt
         "  barrier shaded %d, allocated black %d; %d forced completion(s), \
          %d allocation(s) saved from Image_full@."
         m.major_barrier_greys m.major_alloc_marks m.major_forced_completions
         m.major_forced_allocs;
       if m.major_near_exhaustion then
         Format.fprintf fmt
           "  WARNING: old space is over 90%% occupied even after \
            collection; the image needs a larger old space@.");
  if r.steal.stealing then begin
    Format.fprintf fmt "@.Work stealing:@.";
    Format.fprintf fmt
      "  %d local pick(s), %d steal(s), %d failed steal(s), %d migration(s)@."
      r.steal.local_picks r.steal.steals r.steal.failed_steals
      r.steal.migrations;
    Format.fprintf fmt "  stolen from:";
    List.iteri
      (fun i n -> Format.fprintf fmt " vp%d=%d" i n)
      r.steal.stolen_from;
    Format.fprintf fmt "@."
  end;
  if
    r.crashes_delivered + r.failovers + r.ctx_abandons + r.degraded_scavenges
    + r.vp_fault_cycles + r.lock_fault_spin + r.lock_backoff
    + r.lock_fault_stall + r.device_fault_stall
    > 0
  then begin
    Format.fprintf fmt "@.Fault recovery:@.";
    Format.fprintf fmt
      "  %d crash(es) delivered, %d failover(s), %d replicated-state \
       abandon(s), %d degraded scavenge(s)@."
      r.crashes_delivered r.failovers r.ctx_abandons r.degraded_scavenges;
    Format.fprintf fmt
      "  injected stalls: %d vp, %d lock-holder, %d device cycles; waiter \
       fault-spin %d, backoff %d cycles@."
      r.vp_fault_cycles r.lock_fault_stall r.device_fault_stall
      r.lock_fault_spin r.lock_backoff
  end;
  Format.fprintf fmt "Devices:@.";
  Format.fprintf fmt
    "  display: %d commands, %d cycles of producer wait; input: %d polls@."
    r.display_commands r.display_wait r.input_polls;
  match r.sanitizer_mode with
  | Sanitizer.Off -> ()
  | Sanitizer.Report | Sanitizer.Strict ->
      Format.fprintf fmt "Sanitizer:@.";
      if r.violation_count = 0 then
        Format.fprintf fmt "  no serialization violations@."
      else begin
        Format.fprintf fmt "  %d serialization violation(s):@."
          r.violation_count;
        List.iter (fun m -> Format.fprintf fmt "    %s@." m) r.violations
      end
