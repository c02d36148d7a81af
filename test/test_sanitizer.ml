(* Tests for the serialization sanitizer and its event trace: the ring
   buffer, the lock-timeline and guarded-mutation checks, injected
   violations caught end to end inside a real VM, and clean strict runs. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cm = Cost_model.uniform

(* --- the trace ring --- *)

let test_trace_ring () =
  let t = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.note t ~vp:0 ~time:i ~kind:Trace.Mutation ~resource:"r"
      (string_of_int i)
  done;
  check "total recorded counts overwritten events" 10 (Trace.recorded t);
  let times = List.map (fun e -> e.Trace.time) (Trace.last t 4) in
  Alcotest.(check (list int)) "last 4, oldest first" [ 6; 7; 8; 9 ] times;
  let times = List.map (fun e -> e.Trace.time) (Trace.last t 100) in
  Alcotest.(check (list int)) "requests beyond capacity are clamped"
    [ 6; 7; 8; 9 ] times;
  Trace.clear t;
  check "cleared" 0 (Trace.recorded t)

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Recording stores ints: once the ring exists, no event of a numeric
   detail allocates.  The ring itself is allocated by the first record,
   so a ring that is never recorded into costs next to nothing. *)
let test_trace_allocation () =
  let before = allocated_words () in
  let t = Trace.create () in
  let created = allocated_words () -. before in
  check_bool "an unrecorded ring allocates no slots" true (created < 1000.);
  let r = Trace.intern t "allocation" in
  Trace.record t ~vp:0 ~time:0 ~kind:Trace.Mutation ~resource:r Trace.Empty 0
    0;
  let before = allocated_words () in
  for i = 1 to 10_000 do
    Trace.record t ~vp:(i land 3) ~time:i ~kind:Trace.Lock_acquire
      ~resource:r Trace.Finish (i + 7) 0;
    Trace.record t ~vp:(i land 3) ~time:i ~kind:Trace.Mutation ~resource:r
      Trace.Slot i 3
  done;
  let recorded = allocated_words () -. before in
  check_bool "20,000 records allocate nothing" true (recorded < 100.);
  check "recorded" 20_001 (Trace.recorded t)

(* An Off sanitizer never records, so it never allocates a ring, and a
   dump of it reads as empty.  An armed one checks and traces the hot
   events — lock ops, sections, guarded mutations, owner touches — with
   int stores only. *)
let test_sanitizer_allocation () =
  let before = allocated_words () in
  let off = Sanitizer.create Sanitizer.Off in
  check_bool "Off allocates no ring" true
    (allocated_words () -. before < 1000.);
  Alcotest.(check string) "an Off dump is empty" "(trace empty)\n"
    (Format.asprintf "%a"
       (fun fmt t -> Trace.dump fmt t ~n:10)
       (Sanitizer.trace off));
  let san = Sanitizer.create Sanitizer.Strict in
  let l = Sanitizer.id san "l" and r = Sanitizer.id san "r" in
  let c = Sanitizer.id san "c" in
  Sanitizer.register_guard san ~resource:"r" ~lock:"l";
  Sanitizer.set_armed san true;
  Sanitizer.check_owner san ~resource:c ~owner:1 ~vp:1 ~now:0;
  let before = allocated_words () in
  for i = 1 to 2_000 do
    let start = i * 10 in
    Sanitizer.section_enter san ~lock:l ~vp:0 ~now:start ~start
      ~finish:(start + 5) ~contended:false;
    Sanitizer.check_guarded san ~resource:r ~vp:0 ~now:start Trace.Slot i 2;
    Sanitizer.section_exit san ~lock:l ~vp:0 ~now:(start + 5);
    Sanitizer.on_lock_op san ~lock:l ~vp:1 ~now:(start + 5)
      ~start:(start + 5) ~finish:(start + 9) ~contended:true;
    Sanitizer.check_owner san ~resource:c ~owner:1 ~vp:1 ~now:start
  done;
  check_bool "armed checks allocate nothing" true
    (allocated_words () -. before < 100.);
  check "no violations" 0 (Sanitizer.violation_count san);
  check "every event traced" 12_001 (Trace.recorded (Sanitizer.trace san))

(* --- timeline checks --- *)

(* Drive a lock's timeline by hand: a start before the previous finish is
   the free_at-rewind bug the sanitizer exists to catch. *)
let test_timeline_report () =
  let san = Sanitizer.create Sanitizer.Report in
  let l = Sanitizer.id san "l" in
  Sanitizer.set_armed san true;
  Sanitizer.on_lock_op san ~lock:l ~vp:0 ~now:0 ~start:0 ~finish:100
    ~contended:false;
  Sanitizer.on_lock_op san ~lock:l ~vp:1 ~now:50 ~start:50 ~finish:150
    ~contended:false;
  check "overlapping sections reported" 1 (Sanitizer.violation_count san);
  Sanitizer.on_lock_op san ~lock:l ~vp:0 ~now:150 ~start:150 ~finish:200
    ~contended:false;
  check "a correctly serialized op adds nothing" 1
    (Sanitizer.violation_count san)

let test_timeline_strict_raises () =
  let san = Sanitizer.create Sanitizer.Strict in
  let l = Sanitizer.id san "l" in
  Sanitizer.set_armed san true;
  Sanitizer.on_lock_op san ~lock:l ~vp:0 ~now:0 ~start:0 ~finish:100
    ~contended:false;
  match
    Sanitizer.on_lock_op san ~lock:l ~vp:1 ~now:50 ~start:50 ~finish:150
      ~contended:false
  with
  | () -> Alcotest.fail "expected Violation"
  | exception Sanitizer.Violation _ -> ()

let test_disarmed_is_silent () =
  let san = Sanitizer.create Sanitizer.Strict in
  let l = Sanitizer.id san "l" in
  (* not armed: bootstrap-style mutation must pass *)
  Sanitizer.on_lock_op san ~lock:l ~vp:0 ~now:0 ~start:0 ~finish:100
    ~contended:false;
  Sanitizer.on_lock_op san ~lock:l ~vp:1 ~now:50 ~start:50 ~finish:150
    ~contended:false;
  check "nothing recorded while disarmed" 0 (Sanitizer.violation_count san)

(* --- guarded mutations through a real Spinlock --- *)

let test_guarded_mutation () =
  let san = Sanitizer.create Sanitizer.Report in
  let l = Spinlock.make ~sanitizer:san ~enabled:true ~cost:cm "guard lock" in
  Sanitizer.register_guard san ~resource:"table" ~lock:"guard lock";
  let table = Sanitizer.id san "table" in
  Sanitizer.set_armed san true;
  (* outside any critical section *)
  Sanitizer.check_guarded san ~resource:table ~vp:0 ~now:0 (Trace.Text "x") 0
    0;
  check "unbracketed mutation flagged" 1 (Sanitizer.violation_count san);
  (* inside the bracket: clean *)
  let _, () =
    Spinlock.critical ~vp:1 l ~now:10 ~op_cycles:5 (fun () ->
        Sanitizer.check_guarded san ~resource:table ~vp:1 ~now:10
          (Trace.Text "y") 0 0)
  in
  check "bracketed mutation passes" 1 (Sanitizer.violation_count san);
  (* a different vp mutating inside someone else's section *)
  let _, () =
    Spinlock.critical ~vp:1 l ~now:100 ~op_cycles:5 (fun () ->
        Sanitizer.check_guarded san ~resource:table ~vp:2 ~now:100
          (Trace.Text "z") 0 0)
  in
  check "cross-vp mutation flagged" 2 (Sanitizer.violation_count san);
  (* unregistered resources are never checked *)
  Sanitizer.check_guarded san ~resource:(Sanitizer.id san "unknown") ~vp:0
    ~now:0 (Trace.Text "w") 0 0;
  check "unregistered resource ignored" 2 (Sanitizer.violation_count san)

let test_owner_check () =
  let san = Sanitizer.create Sanitizer.Report in
  Sanitizer.set_armed san true;
  let cache = Sanitizer.id san "cache" in
  Sanitizer.check_owner san ~resource:cache ~owner:2 ~vp:2 ~now:0;
  check "owner may touch" 0 (Sanitizer.violation_count san);
  Sanitizer.check_owner san ~resource:cache ~owner:2 ~vp:0 ~now:0;
  check "foreign vp flagged" 1 (Sanitizer.violation_count san);
  Sanitizer.check_owner san ~resource:cache ~owner:(-1) ~vp:0 ~now:0;
  check "shared (-1) never flagged" 1 (Sanitizer.violation_count san)

(* --- the parallel-scavenge phase --- *)

(* Phase checks fire while the sanitizer is active even though it is
   disarmed (the engine disarms the lock checker around every scavenge);
   this test never arms it. *)
let test_scavenge_phase_report () =
  let san = Sanitizer.create Sanitizer.Report in
  Sanitizer.scavenge_begin san ~workers:2;
  Sanitizer.scavenge_chunk san ~worker:0 ~base:100 ~limit:200;
  Sanitizer.scavenge_chunk san ~worker:1 ~base:200 ~limit:300;
  Sanitizer.scavenge_claim san ~worker:0 ~addr:5000;
  Sanitizer.scavenge_copy san ~worker:0 ~addr:110 ~words:20;
  check "disjoint chunks, single claims and owned copies are clean" 0
    (Sanitizer.violation_count san);
  (* a chunk overlapping both existing chunks: two violations *)
  Sanitizer.scavenge_chunk san ~worker:1 ~base:150 ~limit:250;
  check "overlapping chunk flagged against each victim" 2
    (Sanitizer.violation_count san);
  Sanitizer.scavenge_claim san ~worker:1 ~addr:5000;
  check "double claim flagged" 3 (Sanitizer.violation_count san);
  Sanitizer.scavenge_copy san ~worker:0 ~addr:210 ~words:20;
  check "copy into another worker's chunk flagged" 4
    (Sanitizer.violation_count san);
  Sanitizer.scavenge_copy san ~worker:0 ~addr:190 ~words:20;
  check "copy straddling the chunk boundary flagged" 5
    (Sanitizer.violation_count san);
  Sanitizer.scavenge_end san;
  Sanitizer.scavenge_claim san ~worker:1 ~addr:5000;
  check "checks are no-ops once the phase is closed" 5
    (Sanitizer.violation_count san)

let test_scavenge_phase_empty_chunk () =
  let san = Sanitizer.create Sanitizer.Report in
  Sanitizer.scavenge_begin san ~workers:1;
  Sanitizer.scavenge_chunk san ~worker:0 ~base:10 ~limit:10;
  check "an empty chunk claim is flagged" 1 (Sanitizer.violation_count san)

let test_scavenge_phase_strict_raises () =
  let san = Sanitizer.create Sanitizer.Strict in
  Sanitizer.scavenge_begin san ~workers:2;
  Sanitizer.scavenge_claim san ~worker:0 ~addr:7;
  match Sanitizer.scavenge_claim san ~worker:1 ~addr:7 with
  | () -> Alcotest.fail "expected Violation for the double claim"
  | exception Sanitizer.Violation _ -> ()

let test_scavenge_phase_off_is_silent () =
  let san = Sanitizer.create Sanitizer.Off in
  Sanitizer.scavenge_begin san ~workers:2;
  Sanitizer.scavenge_claim san ~worker:0 ~addr:7;
  Sanitizer.scavenge_claim san ~worker:1 ~addr:7;
  check "mode Off records nothing" 0 (Sanitizer.violation_count san)

(* --- injected violations inside a real VM --- *)

let strict_vm = Testkit.strict_vm

(* An entry-table insert without the entry-table lock: exactly the class
   of bug the deferred-remember discipline exists to prevent. *)
let test_injected_unlocked_remember () =
  let vm = strict_vm () in
  let h = vm.Vm.heap in
  let u = vm.Vm.u in
  let cls = u.Universe.classes.Universe.array in
  (* set the scene unarmed: an old-space holder and a new-space value *)
  let old_obj = Heap.alloc_old h ~slots:1 ~raw:false ~cls () in
  let young = Heap.alloc_new h ~vp:0 ~slots:1 ~raw:false ~cls () in
  let san = Vm.sanitizer vm in
  Sanitizer.set_armed san true;
  (match Heap.store_ptr h old_obj 0 young with
   | _ -> Alcotest.fail "expected Violation for the unlocked remember"
   | exception Sanitizer.Violation _ -> ());
  Sanitizer.set_armed san false;
  check_bool "violation was counted" true (Sanitizer.violation_count san > 0)

let test_injected_unlocked_alloc () =
  let vm = strict_vm () in
  let h = vm.Vm.heap in
  let cls = vm.Vm.u.Universe.classes.Universe.array in
  let san = Vm.sanitizer vm in
  Sanitizer.set_armed san true;
  (match Heap.alloc_new h ~vp:0 ~slots:4 ~raw:false ~cls () with
   | _ -> Alcotest.fail "expected Violation for the unlocked allocation"
   | exception Sanitizer.Violation _ -> ());
  Sanitizer.set_armed san false

let test_injected_scheduler_corruption () =
  let vm =
    Vm.create
      { (Config.testing ~processors:2 ()) with
        Config.sanitize = Sanitizer.Report }
  in
  let proc = Vm.spawn vm "3 + 4" in
  let san = Vm.sanitizer vm in
  let sched = vm.Vm.shared.State.sched in
  Sanitizer.set_armed san true;
  (* claim the Process is running on vp 0; its running_on slot says
     otherwise *)
  sched.Scheduler.running.(0) <- proc;
  Scheduler.check_invariants sched ~now:0 ~vp:0;
  check_bool "running-table corruption detected" true
    (Sanitizer.violation_count san > 0);
  Sanitizer.set_armed san false

(* --- clean strict runs --- *)

let busy_eval_source = Testkit.busy_eval_source

let test_strict_clean_uniprocessor () =
  let vm = strict_vm ~processors:1 () in
  ignore (Vm.eval vm busy_eval_source);
  check "no violations on the baseline" 0
    (Sanitizer.violation_count (Vm.sanitizer vm))

let test_strict_clean_multiprocessor () =
  let vm = strict_vm ~processors:5 () in
  ignore (Workloads.spawn_busy vm 4);
  ignore (Vm.eval vm busy_eval_source);
  check "no violations under MS with busy competition" 0
    (Sanitizer.violation_count (Vm.sanitizer vm))

(* An allocation that finds eden short raises [Heap.Scavenge_needed]
   inside the allocation lock's section (the interpreter's low-water
   mark only covers a context plus a small object): 3000-word Arrays in
   an 8 K-word eden, on four processors with three busy Processes and
   one shared free-context list.  The section must close on the raise,
   as [Spinlock.critical] closes it: the strict run ends clean, and
   afterwards an allocation or an entry-table insert outside any
   section is still reported, which an open section would hide. *)
let test_strict_scavenge_inside_alloc_lock () =
  let vm =
    Vm.create
      { (Testkit.strict_config ~processors:4 ()) with
        Config.free_contexts = Config.Ctx_shared_locked }
  in
  ignore (Workloads.spawn_busy vm 3);
  let h = vm.Vm.heap in
  let lock = vm.Vm.shared.State.alloc_lock in
  let proc =
    Vm.spawn vm "| a | 1 to: 40 do: [:i | a := Array new: 3000]. a size"
  in
  let acquired = Spinlock.acquisitions lock and made = h.Heap.allocations in
  (match Vm.run ~watch:proc vm with
   | Vm.Finished v ->
       Alcotest.(check string) "the doIt's value" "3000" (Vm.describe vm v)
   | _ -> Alcotest.fail "the doIt did not finish");
  (* every eden allocation of the run takes the lock; one that raised
     took it and allocated nothing *)
  check_bool "allocations raised inside the allocation lock" true
    (Spinlock.acquisitions lock - acquired > h.Heap.allocations - made);
  let san = Vm.sanitizer vm in
  check "no violations" 0 (Sanitizer.violation_count san);
  let cls = vm.Vm.u.Universe.classes.Universe.array in
  Sanitizer.set_armed san true;
  (match Heap.alloc_new h ~vp:0 ~slots:4 ~raw:false ~cls () with
   | _ -> Alcotest.fail "the allocation section was left open"
   | exception Sanitizer.Violation _ -> ());
  let old_obj = Heap.alloc_old h ~slots:1 ~raw:false ~cls () in
  (match Heap.remember h (Oop.addr old_obj) with
   | () -> Alcotest.fail "the entry-table section was left open"
   | exception Sanitizer.Violation _ -> ());
  Sanitizer.set_armed san false

(* --- fault events in the trace --- *)

(* Injected faults and recovery actions are trace events, not
   violations: an injected holder stall must land a Fault_event in the
   ring while the violation count stays zero.  (The stall plan is the
   canonical fixture shared with test_faults.) *)
let test_fault_events_traced_not_violations () =
  let san = Sanitizer.create Sanitizer.Report in
  Sanitizer.set_armed san true;
  let m = Machine.make ~processors:2 cm in
  Machine.set_injector m
    (Some (Fault.replay (Testkit.holder_stall_plan 0 120)));
  let l = Spinlock.make ~sanitizer:san ~machine:m ~enabled:true ~cost:cm "l" in
  ignore (Spinlock.locked_op ~vp:0 l ~now:0 ~op_cycles:50);
  check "the stall is an event, not a violation" 0
    (Sanitizer.violation_count san);
  check_bool "a Fault_event names the stalled lock" true
    (List.exists
       (fun e -> e.Trace.kind = Trace.Fault_event && e.Trace.resource = "l")
       (Trace.last (Sanitizer.trace san) 16))

(* --- satellite fixes --- *)

let test_free_contexts_disabled_counts_fresh () =
  let h =
    Heap.create ~old_words:4096 ~eden_words:4096 ~survivor_words:1024 ()
  in
  let t =
    Free_contexts.create_disabled ~sanitizer:(Sanitizer.create Sanitizer.Off)
  in
  let o = Free_contexts.take ~vp:(-1) t h ~now:42 Free_contexts.Small in
  check "no time charged" 42 (Free_contexts.finish t);
  check_bool "nothing recycled" true (Oop.equal o Oop.sentinel);
  check "the miss counts as a fresh allocation" 1
    (Free_contexts.fresh_allocations t);
  ignore (Free_contexts.take ~vp:(-1) t h ~now:43 Free_contexts.Large);
  check "every take counts" 2 (Free_contexts.fresh_allocations t)

(* --- golden trace ---

   The rendered ring pinned byte for byte: a change to how events are
   stored may not change one character of what a dump prints.  The
   digests were recorded before the ring became struct-of-arrays. *)

let dump_of vm =
  Format.asprintf "%a"
    (fun fmt t -> Trace.dump fmt t ~n:4096)
    (Sanitizer.trace (Vm.sanitizer vm))

let hex s = Digest.to_hex (Digest.string s)

let kinds_in vm =
  List.sort_uniq compare
    (List.map
       (fun e -> Trace.kind_name e.Trace.kind)
       (Trace.last (Sanitizer.trace (Vm.sanitizer vm)) 4096))

(* Strict MS, four processors, four busy Processes, the stealing
   scheduler: every hot event kind reaches the ring, and the Delay lets
   idle processors steal.  The run wraps the 4096-slot ring many times. *)
let golden_stealing_source =
  "| s | s := 0. 1 to: 40 do: [:i | s := s + i printString size. \
   (Delay forMilliseconds: 1) wait]. s"

let test_golden_trace_stealing () =
  let vm =
    Vm.create
      { (Config.ms ~processors:4 ()) with
        Config.sanitize = Sanitizer.Strict;
        scheduler = Config.Sched_stealing }
  in
  ignore (Workloads.spawn_busy vm 4);
  ignore (Vm.eval vm golden_stealing_source);
  Alcotest.(check (list string)) "event kinds"
    [ "acquire"; "contend"; "enter"; "exit"; "mutate"; "steal"; "touch" ]
    (kinds_in vm);
  check "recorded" 81973 (Trace.recorded (Sanitizer.trace (Vm.sanitizer vm)));
  Alcotest.(check string) "dump digest" "b2cab285ce678d8c5ad1daf92af12eac"
    (hex (dump_of vm));
  Alcotest.(check (list string)) "no violations" []
    (Sanitizer.violations (Vm.sanitizer vm))

(* A deliberately broken configuration in report mode: violations
   accumulate in the ring and in the message list.  The unguarded steal
   protocol's messages carry the mutated slot ("addr[index]"). *)
let golden_report setup ~recorded ~digest ~count ~first ~list_digest () =
  let vm =
    Vm.create
      { setup.Explorer.config with Config.sanitize = Sanitizer.Report }
  in
  ignore (Workloads.spawn_busy vm setup.Explorer.busy);
  ignore (Vm.eval vm setup.Explorer.source);
  let san = Vm.sanitizer vm in
  check_bool "VIOLATION in the ring" true
    (List.mem "VIOLATION" (kinds_in vm));
  check "recorded" recorded (Trace.recorded (Sanitizer.trace san));
  Alcotest.(check string) "dump digest" digest (hex (dump_of vm));
  check "violation count" count (Sanitizer.violation_count san);
  Alcotest.(check string) "first violation" first
    (List.hd (Sanitizer.violations san));
  Alcotest.(check string) "violation list digest" list_digest
    (hex (String.concat "\n" (Sanitizer.violations san)))

let test_golden_trace_unlocked =
  golden_report
    (Testkit.quick_setup "bs-unlocked")
    ~recorded:8458 ~digest:"96bb9c8b91d765f0aa8f65b99c38d2be" ~count:491
    ~first:
      "scheduler: timeline moved backwards: section [0,25] starts before \
       previous finish 25"
    ~list_digest:"a63003af3a01a76dbab6afd5871a06f6"

let test_golden_trace_steal_unlocked =
  golden_report
    (Testkit.quick_setup "steal-unlocked")
    ~recorded:10092 ~digest:"d714998ba93d2f914d039d5b7ee6dd66" ~count:26
    ~first:
      "ready deque 4: mutated outside 'ready deque 4' critical section \
       (55413[0])"
    ~list_digest:"d219c0380620aede6886f7dffeca3aa7"

let test_instrumentation_covers_all_locks () =
  let vm = Vm.create (Config.testing ~processors:2 ()) in
  let r = Instrumentation.gather vm in
  let names = List.map (fun l -> l.Instrumentation.lock_name) r.locks in
  check "all seven kernel locks reported" 7 (List.length names);
  List.iter
    (fun expected ->
      check_bool (expected ^ " present") true (List.mem expected names))
    [ "allocation"; "entry table"; "scheduler"; "method cache";
      "free contexts" ]

(* --- VM assembly ---

   Each component of a VM is handed the VM's one sanitizer when it is
   built, and each lock and the scheduler the VM's machine.  A component
   left on its default (a private sanitizer in mode Off, no machine)
   would check and perturb nothing without any test noticing, so the
   wiring is checked by physical equality. *)

let test_vm_wiring name () =
  let vm = Vm.create (Testkit.quick_setup name).Explorer.config in
  let san = Vm.sanitizer vm in
  let machine = vm.Vm.machine in
  let holds what x = check_bool (what ^ " holds the VM's sanitizer") true x in
  List.iter
    (fun l ->
      let lock = "lock '" ^ Spinlock.name l ^ "'" in
      holds lock (Spinlock.sanitizer l == san);
      check_bool (lock ^ " holds the VM's machine") true
        (match Spinlock.machine l with
         | Some m -> m == machine
         | None -> false))
    vm.Vm.locks;
  let sh = vm.Vm.shared in
  check_bool "the devices' locks are the VM's" true
    (List.memq (Devices.display_lock sh.State.display) vm.Vm.locks
     && List.memq (Devices.input_lock sh.State.input) vm.Vm.locks);
  holds "the heap" (vm.Vm.heap.Heap.sanitizer == san);
  holds "the scheduler" (sh.State.sched.Scheduler.sanitizer == san);
  check_bool "the scheduler holds the VM's machine" true
    (sh.State.sched.Scheduler.machine == machine);
  Array.iter
    (fun st ->
      let vp = Printf.sprintf "vp %d's " st.State.id in
      holds (vp ^ "method cache")
        (st.State.mcache.Method_cache.sanitizer == san);
      holds (vp ^ "free-context list")
        (Free_contexts.sanitizer st.State.free_ctxs == san))
    vm.Vm.states

let () =
  Alcotest.run "sanitizer"
    [ ("trace",
       [ Alcotest.test_case "ring buffer" `Quick test_trace_ring;
         Alcotest.test_case "allocation" `Quick test_trace_allocation;
         Alcotest.test_case "sanitizer allocation" `Quick
           test_sanitizer_allocation ]);
      ("golden_trace",
       [ Alcotest.test_case "strict stealing busy" `Quick
           test_golden_trace_stealing;
         Alcotest.test_case "report bs-unlocked" `Quick
           test_golden_trace_unlocked;
         Alcotest.test_case "report steal-unlocked" `Quick
           test_golden_trace_steal_unlocked ]);
      ("timeline",
       [ Alcotest.test_case "report mode" `Quick test_timeline_report;
         Alcotest.test_case "strict raises" `Quick test_timeline_strict_raises;
         Alcotest.test_case "disarmed" `Quick test_disarmed_is_silent ]);
      ("guards",
       [ Alcotest.test_case "guarded mutation" `Quick test_guarded_mutation;
         Alcotest.test_case "ownership" `Quick test_owner_check ]);
      ("scavenge_phase",
       [ Alcotest.test_case "report mode" `Quick test_scavenge_phase_report;
         Alcotest.test_case "empty chunk" `Quick
           test_scavenge_phase_empty_chunk;
         Alcotest.test_case "strict raises" `Quick
           test_scavenge_phase_strict_raises;
         Alcotest.test_case "off is silent" `Quick
           test_scavenge_phase_off_is_silent ]);
      ("injection",
       [ Alcotest.test_case "unlocked remember" `Quick
           test_injected_unlocked_remember;
         Alcotest.test_case "unlocked allocation" `Quick
           test_injected_unlocked_alloc;
         Alcotest.test_case "scheduler corruption" `Quick
           test_injected_scheduler_corruption ]);
      ("strict_clean",
       [ Alcotest.test_case "uniprocessor" `Quick
           test_strict_clean_uniprocessor;
         Alcotest.test_case "multiprocessor busy" `Quick
           test_strict_clean_multiprocessor;
         Alcotest.test_case "scavenge raised inside the allocation lock"
           `Quick test_strict_scavenge_inside_alloc_lock ]);
      ("fault_trace",
       [ Alcotest.test_case "faults are events, not violations" `Quick
           test_fault_events_traced_not_violations ]);
      ("wiring",
       List.map
         (fun name ->
           Alcotest.test_case name `Quick (test_vm_wiring name))
         [ "ms"; "stealing"; "bs-unlocked" ]);
      ("satellites",
       [ Alcotest.test_case "disabled free list counts fresh" `Quick
           test_free_contexts_disabled_counts_fresh;
         Alcotest.test_case "instrumentation lock coverage" `Quick
           test_instrumentation_covers_all_locks ]) ]
