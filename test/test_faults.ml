(* Tests for the fault-injection and recovery layer: the spin watchdog's
   deadlock verdict, stall/backoff statistics kept apart from genuine
   contention, interpreter failover after a processor crash, degraded
   parallel scavenging, fault-plan files and shrinking, and the two
   headline properties — a no-fault injector is bit-identical to the
   seed run, and a single processor crash never changes a benchmark's
   answer under the strict sanitizer. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let cm = Cost_model.uniform

(* --- the spin watchdog --- *)

(* A lock whose holder dies inside the critical section parks its
   release at Fault.never; the next contended acquire must give up at
   the watchdog bound with a structured report naming the holder. *)
let test_watchdog_detects_dead_holder () =
  let m = Machine.make ~processors:2 cm in
  Machine.set_injector m
    (Some (Fault.replay [ { Plan.index = 0; action = Fault.Holder_crash } ]));
  let l = Spinlock.make ~enabled:true ~cost:cm "t" in
  Spinlock.attach_machine l m;
  Spinlock.set_watchdog l ~bound:200 ~backoff_after:2;
  ignore (Spinlock.locked_op ~vp:0 l ~now:0 ~op_cycles:50);
  check_bool "the crash was flagged for delivery" true
    (Machine.crash_pending m 0);
  match Spinlock.locked_op ~vp:1 l ~now:60 ~op_cycles:10 with
  | _ -> Alcotest.fail "expected Deadlock_suspected"
  | exception Fault.Deadlock_suspected r ->
      check_str "the lock is named" "t" r.Fault.lock;
      check "the dead holder is named" 0 r.Fault.holder;
      check "the waiter is named" 1 r.Fault.waiter;
      check "the waiter's clock" 60 r.Fault.clock;
      check "held since the holder's acquire" 0 r.Fault.held_since;
      check_bool "the wait is effectively forever" true
        (r.Fault.waited > Fault.never / 2)

(* An injected holder stall below the bound is survivable, and its spin
   lands in the fault counters, not in the contention counters the
   E-series experiments report. *)
let test_stall_survives_and_stats_separate () =
  let m = Machine.make ~processors:2 cm in
  Machine.set_injector m
    (Some
       (Fault.replay [ { Plan.index = 0; action = Fault.Holder_stall 100 } ]));
  let l = Spinlock.make ~enabled:true ~cost:cm "t" in
  Spinlock.attach_machine l m;
  Spinlock.set_watchdog l ~bound:8000 ~backoff_after:0;
  let f0 = Spinlock.locked_op ~vp:0 l ~now:0 ~op_cycles:50 in
  check "the holder is delayed by its own stall" (0 + 1 + 50 + 100) f0;
  let f1 = Spinlock.locked_op ~vp:1 l ~now:10 ~op_cycles:10 in
  check_bool "the waiter got the lock after the extended hold" true
    (f1 > f0);
  check "the injected stall is charged on the lock" 100
    (Spinlock.fault_stall_cycles l);
  check "waiter spin against the stall is fault spin" 100
    (Spinlock.fault_spin_cycles l);
  check_bool "genuine contention spin is still counted" true
    (Spinlock.spin_cycles l > 0);
  check_bool "and excludes the fault part" true
    (Spinlock.spin_cycles l < f1 - 10)

(* The watchdog alone must not perturb the timeline: with no faults and
   no backoff, finishes match an unwatched lock exactly. *)
let test_watchdog_alone_is_identical () =
  let run ~watched =
    let l = Spinlock.make ~enabled:true ~cost:cm "t" in
    if watched then Spinlock.set_watchdog l ~bound:1_000_000 ~backoff_after:0;
    let a = Spinlock.locked_op ~vp:0 l ~now:0 ~op_cycles:37 in
    let b = Spinlock.locked_op ~vp:1 l ~now:5 ~op_cycles:21 in
    let c = Spinlock.locked_op ~vp:0 l ~now:b ~op_cycles:9 in
    (a, b, c, Spinlock.spin_cycles l)
  in
  check_bool "watched and unwatched timelines are identical" true
    (run ~watched:true = run ~watched:false)

(* Exponential backoff can only delay the winning probe, never rewind
   the acquire, and the extra delay is accounted as backoff cycles. *)
let test_backoff_accounting () =
  let run ~backoff_after =
    let l = Spinlock.make ~enabled:true ~cost:cm "t" in
    Spinlock.set_watchdog l ~bound:1_000_000 ~backoff_after;
    ignore (Spinlock.locked_op ~vp:0 l ~now:0 ~op_cycles:400);
    let f = Spinlock.locked_op ~vp:1 l ~now:1 ~op_cycles:10 in
    (f, Spinlock.backoff_cycles l, Spinlock.spin_cycles l)
  in
  let f_fixed, bo_fixed, spin_fixed = run ~backoff_after:0 in
  let f_bo, bo, spin_bo = run ~backoff_after:2 in
  check "fixed-interval spin has no backoff cycles" 0 bo_fixed;
  check_bool "backoff delayed the winning probe" true (f_bo >= f_fixed);
  check "the extra delay is exactly the backoff account" (f_bo - f_fixed) bo;
  check "contention spin is unchanged by backoff" spin_fixed spin_bo

(* --- processor crash and interpreter failover --- *)

let eval_with injector =
  let vm = Testkit.fault_vm injector in
  ignore (Workloads.spawn_busy vm 4);
  let result = Vm.eval_to_string vm Testkit.busy_eval_source in
  (vm, result)

(* A processor crash mid-run: the dead interpreter's Process fails over
   to a survivor, its caches are abandoned, and the benchmark's answer
   is unchanged — all under the strict sanitizer.  The query stream is
   shared between injection points, so scan for an index that lands on
   a scheduling check (a wrong-point index injects nothing). *)
let test_crash_failover_preserves_result () =
  let _, expected = eval_with None in
  let rec honoured index =
    if index > 400 then Alcotest.fail "no index reached a scheduling check"
    else
      let inj = Fault.replay (Testkit.crash_plan index) in
      let vm, got = eval_with (Some inj) in
      if Fault.injected inj = [] then honoured (index + 1) else (vm, got)
  in
  let vm, got = honoured 0 in
  check_str "the crashed run computes the same answer" expected got;
  check "one crash was delivered" 1 vm.Vm.crashes_delivered;
  let r = Instrumentation.gather vm in
  check "the dead vp's Process failed over" 1 r.Instrumentation.failovers;
  check_bool "its free-context list was abandoned" true
    (r.Instrumentation.ctx_abandons >= 1)

(* --- failover never double-enqueues --- *)

let count_in_list h nil proc list =
  let rec go cur n =
    if Oop.equal cur nil then n
    else
      go
        (Heap.get h cur Layout.Process.next_link)
        (if Oop.equal cur proc then n + 1 else n)
  in
  go (Heap.get h list Layout.Linked_list.first) 0

(* Every ready structure the scheduler owns: the serialized per-priority
   lists, or all processors' deques. *)
let count_everywhere vm proc =
  let sched = vm.Vm.shared.State.sched in
  let h = vm.Vm.heap in
  let nil = vm.Vm.u.Universe.nil in
  let total = ref 0 in
  for priority = 1 to Layout.Scheduler.priorities do
    match sched.Scheduler.strategy with
    | Scheduler.Locked ->
        total :=
          !total + count_in_list h nil proc (Scheduler.ready_list sched priority)
    | Scheduler.Stealing ->
        for owner = 0 to sched.Scheduler.processors - 1 do
          total :=
            !total
            + count_in_list h nil proc (Scheduler.deque sched ~owner ~priority)
        done
  done;
  !total

(* MS keeps the running Process in its ready list, so the victim of a
   crash is usually still chained in when failover recovers it; the
   recovery must leave it queued exactly once, never append a second
   link (which would corrupt the list the moment either link is
   unchained). *)
let failover_keeps_single_membership vm =
  let sched = vm.Vm.shared.State.sched in
  let h = vm.Vm.heap in
  let proc = Vm.spawn vm "1" in
  Scheduler.set_running_on sched proc (Some 1);
  sched.Scheduler.running.(1) <- proc;
  check "queued once before the crash" 1 (count_everywhere vm proc);
  let ctx = Heap.get h proc Layout.Process.suspended_context in
  ignore (Scheduler.failover sched ~now:0 ~dead:1 proc ctx);
  check "queued exactly once after failover" 1 (count_everywhere vm proc);
  check_bool "detached from the dead processor" true
    (Scheduler.running_on sched proc = None);
  check "the recovery was counted" 1 (Scheduler.failovers sched)

let test_failover_no_double_enqueue () =
  failover_keeps_single_membership (Testkit.fault_vm None)

let test_failover_no_double_enqueue_stealing () =
  failover_keeps_single_membership
    (Testkit.fault_vm ~scheduler:Config.Sched_stealing None)

(* Crash-during-yield regression: a yield-heavy victim keeps re-chaining
   itself through the ready queue, so a crash delivered anywhere in that
   loop exercises failover against a queued victim.  The answer must be
   the no-fault one, at the first two distinct indices that honour the
   crash. *)
let yield_eval_source =
  "| s | s := 0. 1 to: 60 do: [:i | s := s + i. Processor yield]. s"

let eval_yield_with ?scheduler injector =
  let vm = Testkit.fault_vm ?scheduler injector in
  ignore (Workloads.spawn_busy vm 4);
  let result = Vm.eval_to_string vm yield_eval_source in
  (vm, result)

let test_crash_during_yield_preserves_result () =
  let _, expected = eval_yield_with None in
  let hits = ref 0 in
  let index = ref 0 in
  while !hits < 2 && !index <= 400 do
    let inj = Fault.replay (Testkit.crash_plan !index) in
    let vm, got = eval_yield_with (Some inj) in
    if Fault.injected inj <> [] then begin
      incr hits;
      check_str
        (Printf.sprintf "crash at index %d amid yielding keeps the answer"
           !index)
        expected got;
      check "one crash was delivered" 1 vm.Vm.crashes_delivered
    end;
    incr index
  done;
  check "two indices honoured the crash" 2 !hits

(* E16: crashing a deque owner must strand nothing — the dead
   processor's deque stays stealable and the victim Process fails over,
   with the answer unchanged under the strict sanitizer. *)
let test_deque_owner_crash_stealing () =
  let scheduler = Config.Sched_stealing in
  let _, expected = eval_yield_with ~scheduler None in
  let rec honoured index =
    if index > 400 then Alcotest.fail "no index reached a scheduling check"
    else
      let inj = Fault.replay (Testkit.crash_plan index) in
      let vm, got = eval_yield_with ~scheduler (Some inj) in
      if Fault.injected inj = [] then honoured (index + 1) else (vm, got)
  in
  let vm, got = honoured 0 in
  check_str "the answer survives a deque owner's crash" expected got;
  check "one crash was delivered" 1 vm.Vm.crashes_delivered;
  let r = Instrumentation.gather vm in
  check "the dead owner's Process failed over" 1 r.Instrumentation.failovers;
  check_bool "the stealing scheduler was active" true
    r.Instrumentation.steal.Instrumentation.stealing

(* The headline identity: an installed injector that never fires leaves
   the run bit-identical to the seed — same answer, same virtual time. *)
let no_fault_identity_prop =
  QCheck.Test.make ~count:4
    ~name:"a no-fault injector is bit-identical to the seed run"
    Testkit.seed_arb
    (fun seed ->
      let _, expected = eval_with None in
      let control = Testkit.fault_vm None in
      ignore (Workloads.spawn_busy control 4);
      ignore (Vm.eval_to_string control Testkit.busy_eval_source);
      let inj = Fault.seeded ~params:Fault.no_faults ~seed () in
      let vm, got = eval_with (Some inj) in
      got = expected
      && Vm.cycles vm = Vm.cycles control
      && Fault.injected inj = [])

(* Any single processor crash — wherever it lands — still yields the
   correct answer with the strict sanitizer armed. *)
let single_crash_survives_prop =
  QCheck.Test.make ~count:6
    ~name:"a single vp crash never changes the answer (strict sanitizer)"
    QCheck.(int_range 0 250)
    (fun index ->
      let _, expected = eval_with None in
      let _, got = eval_with (Some (Fault.replay (Testkit.crash_plan index))) in
      got = expected)

(* The same claim over the real macro benchmarks, via a reduced crash
   campaign: every seeded run must survive or be a detected deadlock,
   never a wrong answer. *)
let test_crash_campaign_on_macro_benchmarks () =
  let s =
    Fault_study.run_campaign ~campaign:Fault.Crash ~seeds:2 ~quick:true
      ~bench_keys:[ "definition" ] ()
  in
  check "no failures in the crash campaign" 0 s.Fault_study.failed;
  check "every run survived" 2 s.Fault_study.survived

(* --- degraded parallel scavenging --- *)

let collect_with_worker_crash ~workers plan =
  let rng = Random.State.make [| 4242 |] in
  let processors = 4 in
  let h, cls, nil = Testkit.make_replicated_heap ~processors () in
  let objs =
    Testkit.build_graph ~old_holders:6 ~root_objs:true h cls rng ~n:50
      ~processors
  in
  let root = ref objs.(49) in
  Heap.add_root h root;
  let before = Testkit.fingerprint h nil !root in
  let injector = Fault.replay plan in
  let _, pr = Scavenger.scavenge_parallel h cm ~injector ~workers () in
  let after = Testkit.fingerprint h nil !root in
  (pr, before = after, Verify.check h)

(* A worker killed at a barrier degrades the collection: survivors
   finish its work, the result is flagged, and the heap verifies. *)
let test_degraded_scavenge_verifies () =
  let pr, preserved, problems =
    collect_with_worker_crash ~workers:3
      [ { Plan.index = 0; action = Fault.Worker_crash 1 } ]
  in
  check_bool "the collection is flagged degraded" true pr.Scavenger.degraded;
  check "one worker failed" 1 (List.length pr.Scavenger.failed_workers);
  check_bool "the graph survived the degraded collection" true preserved;
  check "the degraded heap passes verification" 0 (List.length problems)

(* The scavenger never kills its last live worker: a plan full of
   worker crashes still leaves one survivor to finish the collection. *)
let test_degraded_never_kills_last_worker () =
  let plan =
    List.init 8 (fun i -> { Plan.index = i; action = Fault.Worker_crash i })
  in
  let pr, preserved, problems = collect_with_worker_crash ~workers:2 plan in
  check_bool "at most one of two workers died" true
    (List.length pr.Scavenger.failed_workers <= 1);
  check_bool "the graph survived" true preserved;
  check "the heap verifies" 0 (List.length problems)

(* --- fault-plan files and shrinking --- *)

let plan_roundtrip_prop =
  QCheck.Test.make ~count:100 ~name:"fault plans round-trip through files"
    Testkit.fault_plan_arb
    (fun plan ->
      let file = Filename.temp_file "mst-fault" ".plan" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Fault.save file plan;
          Fault.load file = plan))

let test_load_rejects_garbage () =
  let file = Filename.temp_file "mst-fault" ".plan" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc "# comment\ncrash 3\nwobble 4 5\n";
      close_out oc;
      match Fault.load file with
      | _ -> Alcotest.fail "expected Failure on a malformed line"
      | exception Failure _ -> ())

(* Two faults at one index would load, and the replay cursor would
   silently skip the second: the loader must refuse the file. *)
let test_load_rejects_duplicate_index () =
  let file = Filename.temp_file "mst-fault" ".plan" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc "# mst fault plan v1\ncrash 5\ncrash 5\n";
      close_out oc;
      match Fault.load file with
      | _ -> Alcotest.fail "expected Failure on a duplicate index"
      | exception Failure msg ->
          Alcotest.(check string) "names the file, line and index"
            (file ^ ":3: duplicate index 5") msg)

(* An empty (or comment-only) plan is a legal file, but replaying it
   would silently run unperturbed — load_replay must refuse it and pass
   real plans through untouched. *)
let test_load_replay_rejects_empty () =
  let file = Filename.temp_file "mst-fault" ".plan" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc "# mst fault plan v1\n# nothing recorded\n";
      close_out oc;
      check "load itself accepts the empty plan" 0
        (List.length (Fault.load file));
      (match Fault.load_replay file with
       | _ -> Alcotest.fail "expected Failure on an empty replay plan"
       | exception Failure _ -> ());
      let plan = Testkit.crash_plan 7 in
      Fault.save file plan;
      check_bool "a real plan passes through load_replay" true
        (Fault.load_replay file = plan))

(* A synthetic failure needing exactly two of six faults: ddmin must
   find a two-step plan that still fails. *)
let test_shrink_minimal () =
  let fails plan =
    List.exists (fun s -> s.Plan.action = Fault.Holder_crash) plan
    && List.exists
         (fun s ->
           match s.Plan.action with Fault.Vp_stall n -> n >= 1000 | _ -> false)
         plan
  in
  let original =
    List.mapi
      (fun i f -> { Plan.index = i * 7; action = f })
      [ Fault.Vp_crash; Fault.Vp_stall 2000; Fault.Device_timeout 50;
        Fault.Holder_crash; Fault.Worker_crash 1; Fault.Holder_stall 30 ]
  in
  check_bool "the original fails" true (fails original);
  let shrunk, probes = Fault.shrink ~run:fails original in
  check "shrunk to the two relevant faults" 2 (List.length shrunk);
  check_bool "the shrunk plan still fails" true (fails shrunk);
  check_bool "some replays were spent" true (probes > 0)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "faults"
    [ ("watchdog",
       [ Alcotest.test_case "dead holder detected" `Quick
           test_watchdog_detects_dead_holder;
         Alcotest.test_case "stall survives, stats separate" `Quick
           test_stall_survives_and_stats_separate;
         Alcotest.test_case "watchdog alone is identical" `Quick
           test_watchdog_alone_is_identical;
         Alcotest.test_case "backoff accounting" `Quick
           test_backoff_accounting ]);
      ("crash",
       [ Alcotest.test_case "failover preserves the answer" `Quick
           test_crash_failover_preserves_result;
         Alcotest.test_case "failover never double-enqueues" `Quick
           test_failover_no_double_enqueue;
         Alcotest.test_case "failover never double-enqueues (stealing)"
           `Quick test_failover_no_double_enqueue_stealing;
         Alcotest.test_case "crash during yield" `Quick
           test_crash_during_yield_preserves_result;
         Alcotest.test_case "deque owner crash (stealing)" `Quick
           test_deque_owner_crash_stealing;
         q no_fault_identity_prop;
         q single_crash_survives_prop;
         Alcotest.test_case "crash campaign on macro benchmarks" `Slow
           test_crash_campaign_on_macro_benchmarks ]);
      ("degraded-gc",
       [ Alcotest.test_case "degraded scavenge verifies" `Quick
           test_degraded_scavenge_verifies;
         Alcotest.test_case "never kills the last worker" `Quick
           test_degraded_never_kills_last_worker ]);
      ("plans",
       [ q plan_roundtrip_prop;
         Alcotest.test_case "malformed rejected" `Quick
           test_load_rejects_garbage;
         Alcotest.test_case "duplicate index rejected" `Quick
           test_load_rejects_duplicate_index;
         Alcotest.test_case "empty replay rejected" `Quick
           test_load_replay_rejects_empty;
         Alcotest.test_case "shrink minimal" `Quick test_shrink_minimal ]) ]
