(* Assembling and driving Multiprocessor Smalltalk on the simulated
   Firefly.

   [create] wires every subsystem together according to the strategy
   configuration; [run] is the simulation engine: it always steps the
   runnable virtual processor with the smallest clock, and performs the
   stop-the-world scavenge rendezvous — every interpreter parks at a step
   boundary, the collection runs, and all clocks resynchronize past the
   pause, exactly the "global flag plus IPC" discipline of the paper. *)

type t = {
  config : Config.t;
  machine : Machine.t;
  heap : Heap.t;
  u : Universe.t;
  shared : State.shared;
  states : State.t array;
  interps : Interp.t array;
  locks : Spinlock.t list;
  mutable gc_requested : bool;
  mutable scavenge_pauses : int;
  mutable scavenge_cycles : int;
  (* parallel-scavenge accumulators (workers > 1 only); the arrays are
     indexed by worker id, length [processors] *)
  mutable par_scavenges : int;
  mutable par_rounds : int;
  mutable par_coord_cycles : int;
  par_copied_objects : int array;
  par_copied_words : int array;
  par_busy_cycles : int array;
  par_idle_cycles : int array;
  (* fault-recovery accounting *)
  mutable crashes_delivered : int;   (* processors halted by injected crashes *)
  mutable degraded_scavenges : int;  (* collections finished by survivors *)
  (* engine accounting (E17): events the run loop processed, and idle
     re-steps the calendar engine parked away instead of running *)
  mutable engine_events : int;
  mutable parks : int;
  (* E18: the incremental old-space collector, when configured *)
  major : Major.t option;
  mutable major_forced_allocs : int;  (* allocations an emergency forced
                                         completion saved from Image_full *)
  mutable scavenge_pause_costs : int list;  (* newest first *)
}

let sanitizer vm = vm.shared.State.sanitizer

(* Write every interpreter's pc/sp registers back to its active context:
   before anything reads those slots of a running context (see
   State.flush_regs). *)
let flush_regs vm = Array.iter State.flush_regs vm.states

(* Run [f] with the sanitizer disarmed: the collectors mutate the heap
   without locks by design, and the sanitizer must not flag them. *)
let disarmed san f =
  let was_armed = Sanitizer.armed san in
  Sanitizer.set_armed san false;
  Fun.protect ~finally:(fun () -> Sanitizer.set_armed san was_armed) f

(* E18, the emergency path: run the major collector to completion until
   [need] words are available — twice if necessary.  Completing an
   in-flight cycle only reclaims garbage that predates it (everything
   tenured mid-cycle was allocated black), so the words that died while
   the cycle was in flight need a second, fresh cycle. *)
let force_major_room vm mj ~need =
  let cm = vm.shared.State.cm in
  let cost = Major.finish_cycle mj cm in
  if Heap.old_avail vm.heap >= need then cost
  else cost + Major.finish_cycle mj cm

let create (config : Config.t) =
  let cm =
    let base = config.Config.cost in
    if config.Config.locks_enabled then
      { base with
        Cost_model.dispatch =
          base.Cost_model.dispatch + base.Cost_model.ms_static_penalty;
        Cost_model.push =
          base.Cost_model.push + base.Cost_model.ms_static_penalty }
    else base
  in
  let processors = config.Config.processors in
  let machine = Machine.make ~processors cm in
  let san = Sanitizer.create config.Config.sanitize in
  let policy =
    if not config.Config.locks_enabled then Heap.Unlocked
    else
      match config.Config.allocation with
      | Config.Alloc_serialized -> Heap.Shared_locked
      | Config.Alloc_replicated_eden -> Heap.Replicated_eden
  in
  let heap =
    Heap.create ~policy ~processors ~tenure_age:config.Config.tenure_age
      ~sanitizer:san ~old_words:config.Config.old_words
      ~eden_words:config.Config.eden_words
      ~survivor_words:config.Config.survivor_words ()
  in
  let u = Bootstrap.install heap in
  let locks = config.Config.locks_enabled in
  (* Every lock reports its timeline to [san] and sees the machine's
     scheduling policy and fault injector.  Several processors with
     locking off means no serialization at all: the disabled locks then
     report their op windows, so the sanitizer can expose the overlapping
     critical sections this config produces.  The spin watchdog is off by
     default (bound 0 keeps every lock timeline bit-identical to the
     seed); fault campaigns turn it on so a crashed lock holder is
     detected instead of spun on forever.  The locks are built in the
     order that fixes their sanitizer ids. *)
  let watching = config.Config.watchdog_quanta > 0 in
  let make_lock ~enabled name =
    Spinlock.make ~sanitizer:san ~machine
      ~report_unlocked:((not locks) && processors > 1)
      ~watchdog:
        (if watching then
           config.Config.watchdog_quanta * cm.Cost_model.delay_quantum
         else 0)
      ~backoff_after:(if watching then config.Config.backoff_quanta else 0)
      ~enabled ~cost:cm name
  in
  let alloc_lock =
    make_lock
      ~enabled:(locks && config.Config.allocation = Config.Alloc_serialized)
      "allocation"
  in
  let entry_lock = make_lock ~enabled:locks "entry table" in
  let sched_lock = make_lock ~enabled:locks "scheduler" in
  let display_lock = make_lock ~enabled:locks "display output queue" in
  let input_lock = make_lock ~enabled:locks "input event queue" in
  let shared_cache_lock = make_lock ~enabled:locks "method cache" in
  let shared_ctx_lock = make_lock ~enabled:locks "free contexts" in
  let deque_locks =
    match config.Config.scheduler with
    | Config.Sched_locked -> [||]
    | Config.Sched_stealing ->
        Array.init processors (fun i ->
            make_lock ~enabled:locks (Printf.sprintf "ready deque %d" i))
  in
  let all_locks =
    [ alloc_lock; entry_lock; sched_lock; display_lock; input_lock;
      shared_cache_lock; shared_ctx_lock ]
    @ Array.to_list deque_locks
  in
  let display = Devices.make_display ~lock:display_lock ~cost:cm in
  let input = Devices.make_input_queue ~lock:input_lock in
  let sched =
    Scheduler.create ~deque_locks
      ~unlocked_steal:config.Config.debug_unlocked_steal ~sanitizer:san
      ~machine ~u ~lock:sched_lock ~entry_lock
      ~op_cycles:cm.Cost_model.sched_op
      ~remember_cost:cm.Cost_model.remember_insert
      ~keep_running_in_queue:config.Config.keep_running_in_queue ~processors
  in
  let shared = {
    State.u;
    heap;
    cm;
    machine;
    sched;
    alloc_lock;
    entry_lock;
    display;
    input;
    transcript = Buffer.create 256;
    sym_does_not_understand = Universe.intern u "doesNotUnderstand:";
    input_semaphore = ref Oop.sentinel;
    on_terminate = (fun _ _ -> ());
    on_method_install = (fun () -> ());
    timers = Calendar.create ();
    gc_wanted = false;
    request_mailbox = None;
    on_request_done = (fun ~rid:_ ~now:_ -> ());
    compile_hook =
      (fun ~cls ~class_side source ->
        Class_builder.add_method u ~cls ~class_side source);
    decompile_hook = (fun ~meth -> Method_mirror.decompile u meth);
    sanitizer = san;
  } in
  (* method caches *)
  let shared_cache_table = Method_cache.make_table () in
  let make_cache i =
    match config.Config.method_cache with
    | Config.Cache_replicated ->
        Method_cache.create_replicated ~owner:i ~sanitizer:san
    | Config.Cache_shared_locked ->
        Method_cache.create_shared ~sanitizer:san ~lock:shared_cache_lock
          ~table:shared_cache_table
  in
  (* free-context lists *)
  let shared_ctx_lists = Free_contexts.empty_lists () in
  let remember_cost = cm.Cost_model.remember_insert in
  let make_free_ctxs i =
    match config.Config.free_contexts with
    | Config.Ctx_replicated ->
        Free_contexts.create_replicated ~owner:i ~entry_lock ~remember_cost
          ~sanitizer:san
    | Config.Ctx_shared_locked ->
        Free_contexts.create_shared ~entry_lock ~remember_cost ~sanitizer:san
          ~skip_bracket:config.Config.debug_skip_ctx_lock
          ~lock:shared_ctx_lock ~lists:shared_ctx_lists
    | Config.Ctx_disabled -> Free_contexts.create_disabled ~sanitizer:san
  in
  (* guarded resources are bound to their designated locks only when that
     lock is real, so the BS (locks-disabled) configurations are never
     flagged *)
  let guard resource lock =
    if Spinlock.enabled lock then
      Sanitizer.register_guard san ~resource ~lock:(Spinlock.name lock)
  in
  guard "entry table" entry_lock;
  guard "allocation" alloc_lock;
  guard "ready queue" sched_lock;
  Array.iteri
    (fun i l -> guard (Printf.sprintf "ready deque %d" i) l)
    deque_locks;
  guard "display output queue" display_lock;
  guard "input event queue" input_lock;
  if config.Config.free_contexts = Config.Ctx_shared_locked then
    guard "free context list" shared_ctx_lock;
  let states =
    Array.init processors (fun id ->
        State.make ~id ~sh:shared ~mcache:(make_cache id)
          ~free_ctxs:(make_free_ctxs id))
  in
  let interps = Array.map Interp.create states in
  (* the scheduler's per-processor running table holds process oops *)
  Heap.add_array_root heap sched.Scheduler.running;
  Heap.add_root heap shared.State.input_semaphore;
  (* scavenge hooks: flush caches and free lists, drop cached decodes *)
  Heap.on_scavenge heap (fun () ->
      Array.iter
        (fun st ->
          Method_cache.flush st.State.mcache;
          Free_contexts.flush st.State.free_ctxs;
          State.invalidate_cache st)
        states);
  (* installing or replacing a method invalidates cached lookups *)
  shared.State.on_method_install <-
    (fun () -> Array.iter (fun st -> Method_cache.flush st.State.mcache) states);
  (* E18: the incremental old-space collector.  Its roots beyond the
     heap's own registered cells are every host-side reference into the
     image: the universe's well-known objects, the scheduler's deques and
     running table, and each processor's free-context list heads. *)
  let major =
    if not config.Config.major_enabled then None
    else begin
      let iter_roots f =
        Universe.iter_roots u f;
        Scheduler.iter_roots sched f;
        Array.iter
          (fun st -> Free_contexts.iter_roots st.State.free_ctxs f)
          states
      in
      let mj =
        Major.create ~heap ~budget:config.Config.major_budget ~iter_roots
      in
      (* the write barrier rides on every pointer store; the explorer's
         self-check replaces it with a probe that reports every store the
         disabled barrier should have intercepted — an old pointer written
         while marking is in flight — so the sanitizer catches the broken
         configuration deterministically, not only on the schedules where
         a store actually hides the last pointer to a white object *)
      heap.Heap.major_dirty <-
        Some
          (if config.Config.debug_skip_major_barrier then fun v ->
             (if Major.phase mj = Major.Marking && Heap.is_old heap v then
                Sanitizer.report_violation san ~vp:(-1)
                  ~now:(Machine.max_clock machine)
                  ~resource:"major collector"
                  "old pointer stored while marking with the write barrier \
                   disabled")
           else Major.dirty mj);
      heap.Heap.on_old_alloc <- Some (Major.alloc_black mj);
      Some mj
    end
  in
  let vm =
    { config; machine; heap; u; shared; states; interps; locks = all_locks;
      gc_requested = false; scavenge_pauses = 0; scavenge_cycles = 0;
      par_scavenges = 0; par_rounds = 0; par_coord_cycles = 0;
      par_copied_objects = Array.make processors 0;
      par_copied_words = Array.make processors 0;
      par_busy_cycles = Array.make processors 0;
      par_idle_cycles = Array.make processors 0;
      crashes_delivered = 0; degraded_scavenges = 0;
      engine_events = 0; parks = 0;
      major; major_forced_allocs = 0; scavenge_pause_costs = [] }
  in
  (* the last resort before [Image_full]: run the collector to completion
     at the rendezvous clock — every interpreter is at a step boundary
     when an allocation fails — then let [alloc_old] retry against the
     free lists the sweep just filled *)
  (match major with
   | Some mj ->
       heap.Heap.on_old_exhausted <-
         Some
           (fun need ->
             flush_regs vm;
             let t0 = Machine.max_clock machine in
             let cost = disarmed san (fun () -> force_major_room vm mj ~need) in
             Machine.synchronize_clocks machine (t0 + cost);
             vm.major_forced_allocs <- vm.major_forced_allocs + 1;
             Sanitizer.major_event san ~now:(t0 + cost)
               (Printf.sprintf
                  "old space exhausted on a %d-word allocation: forced \
                   cycle completion reclaimed %d free words (%d/%d used)"
                  need (Heap.free_words heap) (Heap.old_used heap)
                  config.Config.old_words);
             true)
   | None -> ());
  vm

(* Install (or clear) the fault injector for this VM's machine: the
   interpreters, locks, devices and the parallel scavenger all consult
   it at their injection points. *)
let set_fault_injector vm inj = Machine.set_injector vm.machine inj

(* --- spawning Smalltalk Processes from OCaml --- *)

let do_scavenge_fwd : (t -> unit) ref =
  ref (fun _ -> Fault.fatal ~vp:(-1) ~clock:0 "scavenge hook not yet installed")

(* Allocate in new space; between engine runs every interpreter is at a
   step boundary, so a scavenge may run right here when eden is full. *)
let rec alloc_spawn vm ~slots ~cls =
  match Heap.alloc_new vm.heap ~vp:0 ~slots ~raw:false ~cls () with
  | o -> o
  | exception Heap.Scavenge_needed ->
      !do_scavenge_fwd vm;
      alloc_spawn vm ~slots ~cls

let spawn_method vm ~priority ~name meth =
  let h = vm.heap in
  let u = vm.u in
  let n = u.Universe.nil in
  let info = Oop.small_val (Heap.get h meth Layout.Method.info) in
  let ntemps = Layout.Minfo.ntemps info in
  let frame = Layout.Ctx.large_frame in
  let ctx =
    alloc_spawn vm ~slots:(Layout.Ctx.fixed_slots + frame)
      ~cls:u.Universe.classes.Universe.method_context
  in
  let set i v = ignore (Heap.store_ptr h ctx i v) in
  set Layout.Ctx.sender n;
  Heap.set_raw h ctx Layout.Ctx.pc (Oop.of_small 0);
  Heap.set_raw h ctx Layout.Ctx.stackp (Oop.of_small ntemps);
  set Layout.Ctx.meth meth;
  set Layout.Ctx.receiver n;
  set Layout.Ctx.home n;
  Heap.set_raw h ctx Layout.Ctx.startpc (Oop.of_small 0);
  Heap.set_raw h ctx Layout.Ctx.argstart (Oop.of_small 0);
  Heap.set_raw h ctx Layout.Ctx.nargs (Oop.of_small 0);
  for i = 0 to ntemps - 1 do
    set (Layout.Ctx.fixed_slots + i) n
  done;
  (* protect the context while the Process object is allocated *)
  let ctx_cell = ref ctx in
  Heap.add_root h ctx_cell;
  let proc =
    alloc_spawn vm ~slots:Layout.Process.fixed_slots
      ~cls:u.Universe.classes.Universe.process
  in
  Heap.remove_root h ctx_cell;
  let ctx = !ctx_cell in
  (* [store_ptr] below may insert [proc] into the entry table without the
     entry-table lock being taken or charged: spawning runs between engine
     runs, when every interpreter is parked and the sanitizer is disarmed,
     so the insert cannot race with any vp — and charging lock cycles here
     would misattribute host-side setup work to the simulation. *)
  let setp i v = ignore (Heap.store_ptr h proc i v) in
  setp Layout.Process.next_link n;
  setp Layout.Process.suspended_context ctx;
  Heap.set_raw h proc Layout.Process.priority (Oop.of_small priority);
  setp Layout.Process.my_list n;
  setp Layout.Process.running_on n;
  setp Layout.Process.name (Universe.new_string u name);
  Heap.set_raw h proc Layout.Process.state
    (Oop.of_small Layout.Process_state.runnable);
  let now = Machine.max_clock vm.machine in
  ignore (Scheduler.wake vm.shared.State.sched ~now proc);
  proc

let spawn vm ?(priority = 5) ?(name = "doIt") source =
  let meth = Codegen.compile_do_it vm.u source in
  spawn_method vm ~priority ~name meth

(* --- the engine --- *)

(* Run one scavenge now; every processor is between steps. *)
let do_scavenge vm =
  flush_regs vm;
  let m = vm.machine in
  (* rendezvous: the collection starts once the laggard reaches its
     safepoint; in the simulation every runnable processor is at a step
     boundary, so that instant is the maximum clock *)
  let t0 = Machine.max_clock m in
  (* E18: promotion failure mid-copy has no recovery — the heap is half
     scavenged, so the major collector cannot be forced then.  When old
     space lacks room for a worst-case survivor set, run a cycle (or
     finish the in-flight one) here, before the copy starts. *)
  let san = vm.shared.State.sanitizer in
  let need =
    Heap.eden_used vm.heap + Heap.survivor_used vm.heap + Layout.header_words
  in
  (match vm.major with
   | Some mj when Heap.old_avail vm.heap < need ->
       let cost = disarmed san (fun () -> force_major_room vm mj ~need) in
       Machine.synchronize_clocks m (t0 + cost);
       Sanitizer.major_event san ~now:(t0 + cost)
         "cycle completed ahead of a scavenge short on promotion room"
   | _ -> ());
  let t0 = Machine.max_clock m in
  disarmed san @@ fun () ->
  let workers =
    Int.min vm.config.Config.scavenge_workers vm.config.Config.processors
  in
  let cost =
    if workers <= 1 then begin
      let stats = Scavenger.scavenge vm.heap in
      Scavenger.cost vm.shared.State.cm stats
    end
    else begin
      let _stats, pr =
        Scavenger.scavenge_parallel vm.heap vm.shared.State.cm
          ?injector:(Machine.injector m) ~workers ()
      in
      vm.par_scavenges <- vm.par_scavenges + 1;
      vm.par_rounds <- vm.par_rounds + pr.Scavenger.rounds;
      vm.par_coord_cycles <-
        vm.par_coord_cycles + pr.Scavenger.coordination_cycles;
      Array.iter
        (fun (ws : Scavenger.worker_stat) ->
          let i = ws.Scavenger.worker in
          vm.par_copied_objects.(i) <-
            vm.par_copied_objects.(i) + ws.Scavenger.copied_objects;
          vm.par_copied_words.(i) <-
            vm.par_copied_words.(i) + ws.Scavenger.copied_words;
          vm.par_busy_cycles.(i) <-
            vm.par_busy_cycles.(i) + ws.Scavenger.busy_cycles;
          vm.par_idle_cycles.(i) <-
            vm.par_idle_cycles.(i) + ws.Scavenger.idle_cycles)
        pr.Scavenger.worker_stats;
      if pr.Scavenger.degraded then
        vm.degraded_scavenges <- vm.degraded_scavenges + 1;
      (* the parallel scavenger reorders copies, so machine-check the heap
         after every collection whenever the sanitizer is on: any claim or
         tiling mistake surfaces as a violation (fatal under Strict).  A
         degraded collection (a worker died mid-scavenge) is verified
         unconditionally — survivors finishing the copy is only a recovery
         if the heap they leave behind is sound. *)
      let problems =
        if pr.Scavenger.degraded || Sanitizer.active san then
          Verify.check vm.heap
        else []
      in
      List.iter
        (fun p ->
          let msg = Format.asprintf "heap check: %a" Verify.pp_problem p in
          if Sanitizer.active san then
            Sanitizer.report_violation san ~vp:(-1) ~now:t0
              ~resource:"parallel scavenge" msg
          else
            Fault.fatal ~vp:(-1) ~clock:t0
              "degraded scavenge failed verification: %s" msg)
        problems;
      pr.Scavenger.pause_cycles
    end
  in
  Machine.synchronize_clocks m (t0 + cost);
  vm.scavenge_pauses <- vm.scavenge_pauses + 1;
  vm.scavenge_cycles <- vm.scavenge_cycles + cost;
  vm.scavenge_pause_costs <- cost :: vm.scavenge_pause_costs;
  vm.gc_requested <- false;
  vm.shared.State.gc_wanted <- false

let () = do_scavenge_fwd := do_scavenge

(* One bounded slice of the incremental old-space collector (E18), run at
   a step boundary exactly like the scavenge rendezvous: every processor
   parks, the slice runs, all clocks resynchronize past it.  The
   collector mutates the heap without locks by design, so the sanitizer
   is disarmed around the slice — and re-armed to machine-check the
   results at the two windows where an invariant is decidable: reachable
   implies marked at mark completion, heap consistency (free lists
   included) at cycle completion. *)
let do_major_slice vm mj =
  flush_regs vm;
  let m = vm.machine in
  let t0 = Machine.max_clock m in
  let san = vm.shared.State.sanitizer in
  let r = disarmed san (fun () -> Major.slice mj vm.shared.State.cm ~now:t0) in
  let now = t0 + r.Major.cost in
  Machine.synchronize_clocks m now;
  Sanitizer.major_slice san ~now ~cost:r.Major.cost ~budget:(Major.budget mj);
  let report what (p : Verify.problem) =
    Sanitizer.report_violation san ~vp:(-1) ~now ~resource:"major collector"
      (Format.asprintf "%s: %a" what Verify.pp_problem p)
  in
  if r.Major.mark_completed && Sanitizer.active san then begin
    (* marks are final and nothing has been swept yet: every object
       reachable from the collector's roots must be marked *)
    let roots = ref [] in
    Major.iter_roots mj (fun o -> roots := o :: !roots);
    List.iter (report "mark check")
      (Verify.check_marked vm.heap ~marked:(Major.marked mj) ~roots:!roots)
  end;
  if r.Major.cycle_completed && Sanitizer.active san then
    List.iter (report "heap check") (Verify.check vm.heap)

(* A major slice is due once the rendezvous clock — every processor
   parks at a step boundary, so the largest clock — reaches its time. *)
let major_due vm =
  match vm.major with
  | Some mj -> Major.due mj ~now:(Machine.max_clock vm.machine)
  | None -> false

(* Signal a timer's semaphore at its deadline: wake the first waiter or
   bank an excess signal, exactly as the signal primitive would. *)
let signal_timer_sem vm ~now sem =
  let sched = vm.shared.State.sched in
  let _, popped = Scheduler.ll_pop_first sched ~now sem in
  match popped with
  | Some waiter -> ignore (Scheduler.wake sched ~now waiter)
  | None ->
      let excess =
        Oop.small_val (Heap.get vm.heap sem Layout.Semaphore.excess_signals)
      in
      Heap.set_raw vm.heap sem Layout.Semaphore.excess_signals
        (Oop.of_small (excess + 1))

let fire_timer vm ~now = function
  | State.Signal_sem cell ->
      let sem = !cell in
      Heap.remove_root vm.heap cell;
      signal_timer_sem vm ~now sem
  | State.Run_hook f -> f ~now

(* True when no Process can make progress anywhere: every interpreter is
   empty-handed, nothing is ready, no input event is still in flight, and
   no timer is pending. *)
let nothing_runnable vm =
  Array.for_all
    (fun st -> Oop.equal !(st.State.active_process) Oop.sentinel)
    vm.states
  && not (Scheduler.better_ready vm.shared.State.sched ~than:0)
  && not (Devices.input_pending vm.shared.State.input)
  && Calendar.is_empty vm.shared.State.timers

(* Deliver an injected processor crash: the victim halts permanently
   (its per-processor state is gone with it), the Process it was running
   fails over to the serialized ready queue, and the replicated caches —
   method cache, free-context list, cached context decode — are
   abandoned.  The kernel notices the death by IPC timeout, charged as a
   few Delay quanta of detection latency before recovery begins. *)
let crash_vp vm id =
  let m = vm.machine in
  let vp = Machine.vp m id in
  let st = vm.states.(id) in
  let detect = 4 * vm.shared.State.cm.Cost_model.delay_quantum in
  let now = vp.Machine.clock + detect in
  Sanitizer.fault_event (sanitizer vm) ~vp:id ~now ~resource:"processor"
    (Printf.sprintf "vp %d halted; failover after %d-cycle detection" id
       detect);
  Machine.set_state m vp Machine.Halted;
  vm.crashes_delivered <- vm.crashes_delivered + 1;
  let proc = !(st.State.active_process) in
  if not (Oop.equal proc Oop.sentinel) then
    ignore
      (Scheduler.failover vm.shared.State.sched ~now ~dead:id proc
         !(st.State.active_ctx));
  Method_cache.flush st.State.mcache;
  Free_contexts.abandon st.State.free_ctxs;
  st.State.active_process := Oop.sentinel;
  State.set_active_ctx st Oop.sentinel;
  st.State.cost <- 0

(* Drain crashes flagged during the last step (lock-holder crashes flag
   the holder; scheduling-check crashes flag the stepping vp). *)
let rec deliver_crashes vm =
  match Machine.take_crash vm.machine with
  | None -> ()
  | Some id ->
      crash_vp vm id;
      deliver_crashes vm

type run_outcome =
  | Finished of Oop.t      (* the watched Process returned this value *)
  | Deadlock               (* nothing left to run *)
  | Cycle_limit

(* The engine: every event steps the runnable processor with the smallest
   clock, ties going to the lowest id (or to an installed policy).

   - Runnable processors live in a pending-heap keyed by (clock, id) —
     packed by {!Pending.key} into one int, so ties still go to the lowest
     id — instead of being rescanned per event.  Entries go stale only by
     their clock moving forward (charges only add), so a popped entry
     whose key is behind the processor's clock is simply reinserted at the
     fresh key, and the first current entry to surface is the true
     minimum.

   - A processor whose step ends off the fast path is not added to the
     heap but held in a one-slot carry, which the next pop consumes with
     {!Pending.push_pop}: one sift-down at most instead of an add and a
     take.  Every live, unparked processor is in the heap, the carry or
     stepping, and the heap top is read only after a pop has emptied
     the carry, so tie collection and the fast path see every
     candidate.

   - [Config.engine] decides one thing: what a processor that goes idle
     with nothing ready does.  On [Engine_scan] it polls — it is charged
     the idle cadence of 10 Delay quanta and goes back on the heap, to be
     re-stepped like any other processor.  On [Engine_calendar] it is
     *parked*: removed from the heap until a wakeup event — ready work
     (the scheduler's on_ready hook fires on every wake and failover), an
     input event becoming visible, or a timer deadline — with its clock
     advanced to the wake, which models the idle loop it would have been
     spinning in.  Parked processors neither poll the input queue nor
     retry scheduler picks, so lock timelines and exact cycle counts
     differ between the two; results, transcripts and census are compared
     by the cross-engine differential oracle.

   - After a step, the engine makes the main loop's next selection
     itself whenever that selection is sure to step a processor (the
     fast path, [step_next]): it pushes the stepped processor's key with
     {!Pending.push_pop} and steps the minimum that comes back, the same
     processor (a batch) or another one (a switch: Table 2's 5-VP
     states interleave one bytecode per processor), instead of going
     back through the main loop for every bytecode.

   - A major slice is due at the rendezvous clock, the largest clock.
     With a major collector configured, the main loop takes it
     ([Machine.max_clock]) once per selection, just before the step,
     each fast-path step raises it to [Int.max rdv vp.clock], and the
     fast path asks [Major.due] at [rdv]; without one, neither path
     computes anything.  [rdv] stays exact between main-loop selections
     because only these move clocks: the stepping processor's own
     charges and lock spin, which the [Int.max] covers; [unpark], which
     raises [rdv] to the clock it gives the woken processor; and
     [on_old_exhausted], whose forced completion synchronizes every
     clock mid-step, the stepping processor's included.  Fault stalls
     and crashes need an injector, which turns the fast path off, and
     [Replica]'s clock restore runs outside the engine.

   - The per-event path compares ints with [Int.max]/[Int.min] and at
     known types, never through [Stdlib.max] or polymorphic compare:
     on OCaml 5.1 those are C calls into compare_val.
     [bench/int_compare_audit.sh] checks the compiled objects.

   Timers due at or before the selected clock fire first, then selection
   repeats, since a wake may unpark a processor with a smaller clock.  A
   polling engine counts the firing and the step as one event, a parking
   one gives the firing an event of its own: the accounting under which
   each engine's published [engine_events] were recorded. *)
let run_engine vm ~max_cycles ~finished ~result outcome =
  let m = vm.machine in
  let procs = vm.config.Config.processors in
  let sched = vm.shared.State.sched in
  let timers = vm.shared.State.timers in
  let polling = vm.config.Config.engine = Config.Engine_scan in
  let pending = Pending.create ~processors:procs in
  (* the carried key, or [no_key]: keys are never negative *)
  let no_key = -1 in
  let carry = ref no_key in
  let parked = Array.make procs false in
  let parked_count = ref 0 in
  (* the rendezvous clock, kept only while a major collector is
     configured: taken before each selected step, raised by unpark *)
  let rdv = ref 0 in
  let pkey vp = Pending.key pending ~clock:vp.Machine.clock ~id:vp.Machine.id in
  let push_vp vp = Pending.add pending (pkey vp) in
  let unpark ~now id =
    if parked.(id) then begin
      parked.(id) <- false;
      decr parked_count;
      let vp = Machine.vp m id in
      if vp.Machine.state <> Machine.Halted then begin
        (* the processor sat in its idle loop until the wake arrived *)
        if vp.Machine.clock < now then Machine.charge m vp (now - vp.Machine.clock);
        rdv := Int.max !rdv vp.Machine.clock;
        push_vp vp
      end
    end
  in
  let unpark_all ~now =
    if !parked_count > 0 then
      for id = 0 to procs - 1 do
        unpark ~now id
      done
  in
  Scheduler.set_on_ready sched (Some (fun ~now -> unpark_all ~now));
  Fun.protect ~finally:(fun () -> Scheduler.set_on_ready sched None)
  @@ fun () ->
  for id = 0 to procs - 1 do
    let vp = Machine.vp m id in
    if vp.Machine.state <> Machine.Halted then push_vp vp
  done;
  (* Selection answers a VP id, or one of these: no unparked processor
     is runnable, or a parking engine spent the event firing timers. *)
  let nothing = -1 and fired = -2 in
  (* Pop entries, the carry first, until a live, current minimum
     surfaces, and answer its id, or [nothing] when heap and carry run
     dry.  Stale entries (processor charged past the key) go back into
     the carry at the fresh key; entries for halted or parked processors
     drop — the parked ones were removed deliberately and re-push on
     unpark. *)
  let rec pop_min () =
    let k =
      if !carry <> no_key then begin
        let c = !carry in
        carry := no_key;
        Pending.push_pop pending c
      end
      else if Pending.is_empty pending then no_key
      else Pending.take pending
    in
    if k = no_key then nothing
    else begin
      let id = Pending.id_of pending k in
      let vp = Machine.vp m id in
      if vp.Machine.state = Machine.Halted || parked.(id) then pop_min ()
      else if pkey vp > k then begin
        carry := pkey vp;
        pop_min ()
      end
      else id
    end
  in
  (* With a policy installed (the explorer), ties between minimal clocks
     go through choose_tie: collect every current candidate in ascending
     id order into [ties], let the policy pick, and reinsert the rest.
     Stale keys only under-estimate, so a heap minimum past the tied
     clock rules a tie out without popping. *)
  let ties = Array.make procs (Machine.vp m 0) in
  let pop_min_policy p =
    let first_id = pop_min () in
    if first_id = nothing then nothing
    else begin
      let first = Machine.vp m first_id in
      let past_tie =
        Pending.key pending ~clock:(first.Machine.clock + 1) ~id:0
      in
      ties.(0) <- first;
      let rec collect n =
        let id =
          if Pending.top pending < past_tie then pop_min () else nothing
        in
        if id = nothing then n
        else begin
          let vp = Machine.vp m id in
          if vp.Machine.clock = first.Machine.clock then begin
            ties.(n) <- vp;
            collect (n + 1)
          end
          else begin
            push_vp vp;
            n
          end
        end
      in
      let n = collect 1 in
      if n = 1 then first_id
      else begin
        let chosen = p.Machine.choose_tie (Array.sub ties 0 n) in
        for i = 0 to n - 1 do
          if ties.(i) != chosen then push_vp ties.(i)
        done;
        chosen.Machine.id
      end
    end
  in
  let fire_next_timer () =
    let t = Calendar.top_key timers in
    fire_timer vm ~now:t (Calendar.take timers)
  in
  let fire_timers_until ~frontier =
    while Calendar.top_key timers <= frontier do
      fire_next_timer ()
    done
  in
  (* The id of the next processor to step, [fired] or [nothing]. *)
  let rec select () =
    let id =
      match Machine.policy m with
      | Some p -> pop_min_policy p
      | None -> pop_min ()
    in
    if id = nothing then nothing
    else begin
      let vp = Machine.vp m id in
      if Calendar.top_key timers <= vp.Machine.clock then begin
        push_vp vp;
        fire_timers_until ~frontier:vp.Machine.clock;
        if polling then select () else fired
      end
      else id
    end
  in
  (* Step the selected processor, then make the main loop's next
     selection here when it is sure to step a processor (the fast path):
     no outcome, collection or slice pending, and the popped minimum is
     current, live, unparked, within the cycle limit, not past a due
     timer and, under a policy, strictly minimal, so every tie still
     reaches choose_tie through the main loop.  The minimum is the
     stepping processor itself when [push_pop] hands its key straight
     back (a batch), or another processor's (a switch).  Anything else
     leaves the popped key in the carry for [select], which sees the
     same heap the main loop would.  Only an injector turns the fast
     path off: it wants [deliver_crashes] between single steps.  One
     closure for the whole run: the per-event path allocates nothing. *)
  let fast = Option.is_none (Machine.injector m) in
  let rec step_vp vp interp =
    let st = interp.Interp.st in
    match Interp.step interp with
    | exception e ->
        (* a VM-level error killed the running Process; take it off the
           machine so later evaluations start clean, then let the error
           propagate.  The cleanup itself takes the scheduler lock, so
           under fault injection it can hit the same wedged lock that
           raised [e] — swallow the secondary failure rather than mask
           the original report *)
        (try
           if not (Oop.equal !(st.State.active_process) Oop.sentinel)
           then Primitives.finish_process st ~result:vm.u.Universe.nil
         with _ -> ());
        raise e
    | Interp.Ran ->
        if vp.Machine.state <> Machine.Running then
          Machine.set_state m vp Machine.Running;
        Machine.charge_mem m vp st.State.cost;
        (match vm.major with
         | Some _ -> rdv := Int.max !rdv vp.Machine.clock
         | None -> ());
        if
          fast && (not !finished)
          && (not vm.gc_requested)
          && (not vm.shared.State.gc_wanted)
          && (match vm.major with
              | None -> true
              | Some mj -> not (Major.due mj ~now:!rdv))
        then step_next (Pending.push_pop pending (pkey vp))
        else carry := pkey vp
    | Interp.Idle ->
        (* an idle interpreter keeps watching the input queue *)
        st.State.cost <- 0;
        Interp.idle_poll interp;
        Machine.charge m vp st.State.cost;
        if nothing_runnable vm then outcome := Some Deadlock
        else begin
          if vp.Machine.state <> Machine.Idle then
            Machine.set_state m vp Machine.Idle;
          (* a polling processor re-polls the ready queue only every few
             Delay quanta, or the scheduler lock saturates; a parking
             one does the same when ready work is visible but its pick
             missed it (it may sit in another processor's deque) *)
          if polling || Scheduler.better_ready sched ~than:0 then begin
            Machine.charge m vp
              (10 * vm.shared.State.cm.Cost_model.delay_quantum);
            push_vp vp
          end
          else begin
            parked.(vp.Machine.id) <- true;
            incr parked_count;
            vm.parks <- vm.parks + 1
          end
        end
    | Interp.Need_gc ->
        vm.gc_requested <- true;
        push_vp vp
  and step_next k =
    let id = Pending.id_of pending k in
    let vp = Machine.vp m id in
    if
      pkey vp = k
      && vp.Machine.state <> Machine.Halted
      && (not parked.(id))
      && vp.Machine.clock < Calendar.top_key timers
      && vp.Machine.clock <= max_cycles
      && (match Machine.policy m with
          | None -> true
          | Some _ ->
              Pending.top pending
              >= Pending.key pending ~clock:(vp.Machine.clock + 1) ~id:0)
    then begin
      vm.engine_events <- vm.engine_events + 1;
      step_vp vp vm.interps.(id)
    end
    else carry := k
  in
  while Option.is_none !outcome do
    vm.engine_events <- vm.engine_events + 1;
    if !finished then outcome := Some (Finished (Option.get !result))
    else if vm.gc_requested || vm.shared.State.gc_wanted then do_scavenge vm
    else if major_due vm then do_major_slice vm (Option.get vm.major)
    else begin
      let id = select () in
      if id >= 0 then begin
        let vp = Machine.vp m id in
        if vp.Machine.clock > max_cycles then outcome := Some Cycle_limit
        else begin
          (match vm.major with
           | Some _ -> rdv := Machine.max_clock m
           | None -> ());
          step_vp vp vm.interps.(id)
        end
      end
      else if id = nothing then begin
        (* no unparked runnable processor: virtual time advances to the
           next event — a timer deadline or an input arrival — and the
           firing or the poll after unparking brings work back *)
        if not (Calendar.is_empty timers) then fire_next_timer ()
        else begin
          match Devices.next_input_time vm.shared.State.input with
          | Some t when !parked_count > 0 ->
              unpark_all ~now:(Int.max t (Machine.max_clock m))
          | _ ->
              if !parked_count = 0 || nothing_runnable vm then
                (* every processor is dead, or nothing is left *)
                outcome := Some Deadlock
              else
                (* ready work with every processor parked and no wake
                   recorded — conservatively unreachable; unpark
                   everyone rather than misreport a deadlock *)
                unpark_all ~now:(Machine.max_clock m)
        end
      end;
      (* crashes flagged during the event are delivered here, at the step
         boundary: the victim's shared-state work has completed, so what
         a crash leaves behind is exactly what a dead processor leaves —
         an unreleased lock, a Process with no executor — not a
         half-mutated structure *)
      match Machine.injector m with
      | Some _ -> deliver_crashes vm
      | None -> ()
    end
  done

(* Run until the watched Process terminates (or the system quiesces).
   Returns the outcome; virtual time advances on [vm.machine]. *)
let run ?(max_cycles = 100_000_000_000) ?watch vm =
  let result = ref None in
  let finished = ref false in
  (* the watched Process lives in new space; keep the comparison oop up to
     date across scavenges *)
  let watch_cell = ref (match watch with Some w -> w | None -> Oop.sentinel) in
  if watch <> None then Heap.add_root vm.heap watch_cell;
  (vm.shared).State.on_terminate <-
    (fun proc value ->
      match watch with
      | Some _ when Oop.equal proc !watch_cell ->
          result := Some value;
          finished := true
      | Some _ | None -> ());
  let outcome = ref None in
  (* the sanitizer only checks steady-state execution: bootstrap, spawn
     and class loading mutate shared structures single-threaded *)
  let san = vm.shared.State.sanitizer in
  Sanitizer.set_armed san true;
  Fun.protect
    ~finally:(fun () ->
      flush_regs vm;
      Sanitizer.set_armed san false;
      if watch <> None then Heap.remove_root vm.heap watch_cell)
  @@ fun () ->
  run_engine vm ~max_cycles ~finished ~result outcome;
  Option.get !outcome

(* --- convenience API --- *)

exception Error of string

(* Install additional classes (image-definition format) after bootstrap:
   workload classes for the benchmarks, user code for the examples. *)
let load_classes vm source =
  Class_builder.load vm.u source;
  vm.shared.State.on_method_install ()

let eval ?(priority = 5) vm source =
  let proc = spawn vm ~priority ~name:"doIt" source in
  match run ~watch:proc vm with
  | Finished value -> value
  | Deadlock -> raise (Error "evaluation deadlocked")
  | Cycle_limit -> raise (Error "evaluation exceeded the cycle limit")

(* A short printable description of [oop], computed on the OCaml side. *)
let describe vm (o : Oop.t) =
  let u = vm.u in
  let h = vm.heap in
  let c = u.Universe.classes in
  if Oop.is_small o then string_of_int (Oop.small_val o)
  else if Oop.equal o u.Universe.nil then "nil"
  else if Oop.equal o u.Universe.true_ then "true"
  else if Oop.equal o u.Universe.false_ then "false"
  else if Oop.equal o Oop.sentinel then "<sentinel>"
  else begin
    let cls = Heap.class_at h (Oop.addr o) in
    if Oop.equal cls c.Universe.string then
      Printf.sprintf "'%s'" (Heap.string_value h o)
    else if Oop.equal cls c.Universe.symbol then
      "#" ^ Heap.string_value h o
    else if Oop.equal cls c.Universe.character then
      Printf.sprintf "$%c" (Universe.char_value u o)
    else if Oop.equal cls c.Universe.float_c then
      Printf.sprintf "%g" (Universe.float_value u o)
    else if Oop.equal cls c.Universe.class_c then
      Universe.class_name u o
    else "a " ^ Universe.class_name u cls
  end

let eval_to_string ?priority vm source = describe vm (eval ?priority vm source)

let transcript vm = Buffer.contents vm.shared.State.transcript

let cycles vm = Machine.max_clock vm.machine
let seconds vm = Cost_model.seconds vm.config.Config.cost (cycles vm)
