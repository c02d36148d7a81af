(* Tests for the schedule explorer: the seeded driver's determinism, the
   decision-trace file format, shrinking against a synthetic failure, the
   scheduling-policy hook at the machine level, and end-to-end runs — the
   published MS configuration explores clean while the deliberately broken
   configurations yield shrunk, replayable counterexamples. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cm = Cost_model.firefly

(* --- the policy hook at the machine level --- *)

(* With no policy installed the engine must behave exactly as before:
   lowest id wins a min-clock tie. *)
let test_default_tie_break () =
  let m = Machine.make ~processors:3 cm in
  (Machine.vp m 0).Machine.clock <- 10;
  (Machine.vp m 1).Machine.clock <- 10;
  (Machine.vp m 2).Machine.clock <- 10;
  (match Machine.min_runnable m with
   | Some vp -> check "lowest id wins by default" 0 vp.Machine.id
   | None -> Alcotest.fail "expected a runnable vp")

let test_policy_tie_break () =
  let m = Machine.make ~processors:3 cm in
  (Machine.vp m 0).Machine.clock <- 10;
  (Machine.vp m 1).Machine.clock <- 10;
  (Machine.vp m 2).Machine.clock <- 20;
  let seen = ref 0 in
  Machine.set_policy m
    (Some
       { Machine.default_policy with
         Machine.choose_tie =
           (fun cands ->
             seen := Array.length cands;
             cands.(Array.length cands - 1)) });
  (match Machine.min_runnable m with
   | Some vp -> check "policy picked the last tied candidate" 1 vp.Machine.id
   | None -> Alcotest.fail "expected a runnable vp");
  check "only the tied vps were offered" 2 !seen;
  (* no tie: the policy must not be consulted *)
  seen := -1;
  (Machine.vp m 0).Machine.clock <- 5;
  (match Machine.min_runnable m with
   | Some vp -> check "unique minimum bypasses the policy" 0 vp.Machine.id
   | None -> Alcotest.fail "expected a runnable vp");
  check "policy not consulted without a tie" (-1) !seen

let test_forced_preempt_flag () =
  let m = Machine.make ~processors:2 cm in
  check_bool "no pending preempt initially" false
    (Machine.take_forced_preempt m 0);
  Machine.flag_preempt m 0;
  check_bool "flag is delivered" true (Machine.take_forced_preempt m 0);
  check_bool "and consumed" false (Machine.take_forced_preempt m 0);
  check_bool "other vps unaffected" false (Machine.take_forced_preempt m 1)

(* Jitter must never rewind an enabled lock's timeline: a contended
   acquire still starts at or after the previous section's finish. *)
let test_jitter_keeps_timeline () =
  let m = Machine.make ~processors:2 cm in
  Machine.set_policy m
    (Some
       { Machine.default_policy with
         Machine.lock_jitter = (fun ~vp:_ ~lock:_ ~now:_ -> 17) });
  let l = Spinlock.make ~enabled:true ~cost:cm "t" in
  Spinlock.attach_machine l m;
  let fin1 = Spinlock.locked_op ~vp:0 l ~now:0 ~op_cycles:50 in
  let fin2 = Spinlock.locked_op ~vp:1 l ~now:10 ~op_cycles:50 in
  check_bool "serialized in spite of the jitter" true
    (fin2 - cm.Cost_model.lock_acquire - 50 >= fin1)

(* --- the seeded driver --- *)

(* Drive a policy through a fixed query pattern and collect the recorded
   schedule; the same seed must reproduce it exactly. *)
let drive seed =
  let d = Explore.seeded ~seed () in
  let p = Explore.policy d in
  let m = Machine.make ~processors:4 cm in
  let cands = Array.init 3 (Machine.vp m) in
  for i = 0 to 199 do
    ignore (p.Machine.choose_tie cands);
    ignore (p.Machine.lock_jitter ~vp:(i mod 4) ~lock:"l" ~now:(i * 10));
    ignore (p.Machine.preempt_after ~vp:(i mod 4) ~lock:"l" ~now:(i * 10))
  done;
  (Explore.recorded d, Explore.queries d)

let test_seeded_deterministic () =
  let s1, q1 = drive 42 in
  let s2, q2 = drive 42 in
  check "same query count" q1 q2;
  check_bool "same seed gives the identical schedule" true (s1 = s2);
  check "every query counted" 600 q1;
  let s3, _ = drive 43 in
  check_bool "a different seed perturbs differently" true (s1 <> s3)

let test_seeded_indices_ascend () =
  let s, _ = drive 7 in
  check_bool "some perturbations happened" true (s <> []);
  let rec ascending = function
    | a :: (b :: _ as rest) ->
        a.Plan.index < b.Plan.index && ascending rest
    | _ -> true
  in
  check_bool "indices strictly ascend" true (ascending s)

(* --- decision-trace files --- *)

let arb_schedule =
  let open QCheck in
  let decision =
    Gen.oneof
      [ Gen.map (fun k -> Explore.Tie_pick k) (Gen.int_range 0 7);
        Gen.map (fun j -> Explore.Lock_jitter j) (Gen.int_range 0 500);
        Gen.return Explore.Force_preempt ]
  in
  let gen =
    Gen.map
      (fun ds ->
        List.mapi (fun i d -> { Plan.index = i * 3; action = d }) ds)
      (Gen.list_size (Gen.int_range 0 40) decision)
  in
  make ~print:(Format.asprintf "%a" Explore.pp) gen

let save_load_roundtrip_prop =
  QCheck.Test.make ~count:100 ~name:"decision traces round-trip through files"
    arb_schedule
    (fun sched ->
      let file = Filename.temp_file "mst-trace" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Explore.save file sched;
          Explore.load file = sched))

let test_load_rejects_garbage () =
  let file = Filename.temp_file "mst-trace" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc "# comment\ntie 3 1\nwibble 4\n";
      close_out oc;
      match Explore.load file with
      | _ -> Alcotest.fail "expected Failure on a malformed line"
      | exception Failure _ -> ())

(* Two decisions at one index would load, and the replay cursor would
   silently skip the second: the loader must refuse the file. *)
let test_load_rejects_duplicate_index () =
  let file = Filename.temp_file "mst-trace" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc "# mst decision trace v1\ntie 3 1\ntie 3 2\n";
      close_out oc;
      match Explore.load file with
      | _ -> Alcotest.fail "expected Failure on a duplicate index"
      | exception Failure msg ->
          Alcotest.(check string) "names the file, line and index"
            (file ^ ":3: duplicate index 3") msg)

(* An empty (or comment-only) trace is a legal file, but replaying it
   would silently run the unperturbed schedule — load_replay must refuse
   it and pass real traces through untouched. *)
let test_load_replay_rejects_empty () =
  let file = Filename.temp_file "mst-trace" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc "# mst decision trace v1\n# nothing recorded\n";
      close_out oc;
      check "load itself accepts the empty trace" 0
        (List.length (Explore.load file));
      (match Explore.load_replay file with
       | _ -> Alcotest.fail "expected Failure on an empty replay trace"
       | exception Failure _ -> ());
      let sched = [ { Plan.index = 4; action = Explore.Tie_pick 1 } ] in
      Explore.save file sched;
      check_bool "a real trace passes through load_replay" true
        (Explore.load_replay file = sched))

(* --- shrinking --- *)

(* A synthetic failure: the run "fails" exactly when the schedule still
   contains a Force_preempt at index 30 AND any jitter of at least 10.
   The minimum is two decisions; shrinking must find a two-step schedule
   and never report success on a passing one. *)
let test_shrink_synthetic () =
  let fails sched =
    List.exists
      (fun s -> s.Plan.index = 30 && s.Plan.action = Explore.Force_preempt)
      sched
    && List.exists
         (fun s ->
           match s.Plan.action with
           | Explore.Lock_jitter j -> j >= 10
           | _ -> false)
         sched
  in
  let original =
    List.mapi
      (fun i d -> { Plan.index = i * 10; action = d })
      [ Explore.Tie_pick 2; Explore.Lock_jitter 400; Explore.Tie_pick 1;
        Explore.Force_preempt; Explore.Lock_jitter 3; Explore.Tie_pick 0 ]
  in
  check_bool "the original fails" true (fails original);
  let shrunk, probes = Explore.shrink ~run:fails original in
  check "shrunk to the two relevant decisions" 2 (List.length shrunk);
  check_bool "the shrunk schedule still fails" true (fails shrunk);
  check_bool "some replays were spent" true (probes > 0);
  (* value shrinking halves the surviving jitter toward the threshold *)
  List.iter
    (fun s ->
      match s.Plan.action with
      | Explore.Lock_jitter j ->
          check_bool "jitter shrunk below twice the threshold" true (j < 20)
      | _ -> ())
    shrunk

let test_shrink_budget_respected () =
  let fails _ = true in
  let original =
    List.init 64 (fun i -> { Plan.index = i; action = Explore.Force_preempt })
  in
  let shrunk, probes = Explore.shrink ~run:fails ~budget:10 original in
  check_bool "budget caps the replays" true (probes <= 10);
  check_bool "a universally failing schedule shrinks toward empty" true
    (List.length shrunk <= 64)

(* --- end to end: the differential oracle --- *)

let quick_setup = Explorer.ms_setup ~quick:true ()

let test_ms_explores_clean () =
  let r = Explorer.explore quick_setup ~seeds:3 in
  check "no counterexamples on the published MS configuration" 0
    (List.length r.Explorer.counterexamples);
  check "three seeds ran" 3 r.Explorer.seeds_run;
  check_bool "the seeds actually perturbed the schedule" true
    (r.Explorer.perturbations > 0);
  check_bool "distinct seeds gave distinct schedules" true
    (r.Explorer.distinct > 1)

let test_same_seed_same_run () =
  let o1 = Explorer.run_seed quick_setup ~seed:11 in
  let o2 = Explorer.run_seed quick_setup ~seed:11 in
  check_bool "identical schedules" true (o1.Explorer.schedule = o2.Explorer.schedule);
  check "identical query counts" o1.Explorer.queries o2.Explorer.queries;
  (match (o1.Explorer.obs, o2.Explorer.obs) with
   | Some a, Some b ->
       check_bool "identical observables" true
         (a.Explorer.result = b.Explorer.result
          && a.Explorer.transcript = b.Explorer.transcript
          && a.Explorer.census = b.Explorer.census)
   | _ -> Alcotest.fail "both runs must complete")

(* Executions share recycled heap memory, so no execution may leak into
   the next: seed 11 must give the same outcome before and after a run
   that dies mid-evaluation on a sanitizer violation and a few other
   seeds. *)
let test_executions_independent () =
  let first = Explorer.run_seed quick_setup ~seed:11 in
  let died =
    Explorer.run_seed (Explorer.broken_ctx_setup ~quick:true ()) ~seed:0
  in
  check_bool "the broken run died mid-evaluation" true
    (died.Explorer.obs = None && died.Explorer.violations > 0);
  List.iter
    (fun seed -> ignore (Explorer.run_seed quick_setup ~seed))
    [ 3; 4; 5 ];
  let again = Explorer.run_seed quick_setup ~seed:11 in
  check_bool "the seed ran to completion" true (first.Explorer.obs <> None);
  check_bool "identical outcomes" true (first = again)

let test_replay_empty_is_reference () =
  let r = Explorer.reference quick_setup in
  let o = Explorer.run_schedule quick_setup [] in
  Alcotest.(check (option string)) "empty schedule passes the oracle" None
    (Explorer.check ~reference:r o)

let expect_counterexample name setup =
  let r = Explorer.explore setup ~seeds:4 in
  check_bool (name ^ ": a counterexample was found") true
    (r.Explorer.counterexamples <> []);
  List.iter
    (fun c ->
      check_bool
        (Printf.sprintf "%s: seed %d's shrunk schedule reproduces" name
           (Option.get c.Explorer.seed))
        true c.Explorer.reproduces;
      check_bool
        (Printf.sprintf "%s: shrunk no larger than the original" name)
        true
        (List.length c.Explorer.shrunk <= List.length c.Explorer.original))
    r.Explorer.counterexamples

let test_broken_unlocked_found () =
  expect_counterexample "unlocked"
    (Explorer.broken_unlocked_setup ~quick:true ())

let test_broken_ctx_found () =
  expect_counterexample "ctx-unbracketed"
    (Explorer.broken_ctx_setup ~quick:true ())

(* --- the work-stealing scheduler (E16) --- *)

(* The stealing setup carries a *locked* reference, which makes the
   oracle differential across representations: a steal that loses,
   duplicates or reorders an answer-reaching Process diverges from the
   serialized queue's observables even when no lock discipline was
   violated. *)
let test_stealing_explores_clean_vs_locked () =
  let r = Explorer.explore (Explorer.stealing_setup ~quick:true ()) ~seeds:3 in
  check "stealing explores clean against the locked reference" 0
    (List.length r.Explorer.counterexamples);
  check_bool "the seeds actually perturbed the schedule" true
    (r.Explorer.perturbations > 0)

(* A property over 2 and 3 processors: every perturbed run of the named
   setup must match its reference's unperturbed observables, run once
   per processor count. *)
let matches_reference_prop ~count ~name config =
  let setup processors =
    (List.assoc config Explorer.setups) ~processors ~quick:true ()
  in
  let references =
    lazy (List.map (fun p -> (p, Explorer.reference (setup p))) [ 2; 3 ])
  in
  QCheck.Test.make ~count ~name
    QCheck.(pair (int_range 2 3) (int_range 0 1_000_000))
    (fun (processors, seed) ->
      let reference = List.assoc processors (Lazy.force references) in
      Explorer.check ~reference (Explorer.run_seed (setup processors) ~seed)
      = None)

(* The same claim as a 50-seed property on 2 and 3 processors: every
   perturbed stealing run must match the locked scheduler's unperturbed
   observables (result, transcript and stable-root census). *)
let steal_vs_locked_prop =
  matches_reference_prop ~count:50
    ~name:"stealing matches the locked scheduler on every seed (2-3 vps)"
    "stealing"

(* --- the event-calendar engine (E17) --- *)

(* The same differential idea across engines: a perturbed calendar-engine
   run must compute the scan engine's observables — parking idle VPs and
   batching uncontended steps may shift cycle counts, but never the
   result, the transcript or the stable-root census. *)
let test_calendar_explores_clean_vs_scan () =
  let r = Explorer.explore (Explorer.calendar_setup ~quick:true ()) ~seeds:3 in
  check "calendar explores clean against the scan reference" 0
    (List.length r.Explorer.counterexamples);
  check_bool "the seeds actually perturbed the schedule" true
    (r.Explorer.perturbations > 0)

let calendar_vs_scan_prop =
  matches_reference_prop ~count:25
    ~name:"calendar engine matches the scan engine on every seed (2-3 vps)"
    "calendar"

(* The deliberately broken steal protocol (no deque-lock brackets) must
   be caught by the strict sanitizer on *every* seed — the unguarded
   mutation happens on the very first deque operation, perturbed or
   not. *)
let test_broken_steal_found_every_seed () =
  let setup = Explorer.broken_steal_setup ~quick:true () in
  let r = Explorer.explore setup ~seeds:4 in
  check "every seed yields a counterexample" 4
    (List.length r.Explorer.counterexamples);
  List.iter
    (fun c ->
      check_bool
        (Printf.sprintf "steal-unlocked: seed %d's shrunk schedule reproduces"
           (Option.get c.Explorer.seed))
        true c.Explorer.reproduces)
    r.Explorer.counterexamples

(* --- the incremental old-space collector (E18) --- *)

(* The differential oracle across collector on/off: collector slices
   shift lock timelines and clock totals, but mark-sweep never moves or
   frees a reachable object, so every perturbed collector run must
   compute the collector-free reference's observables. *)
let test_major_explores_clean_vs_off () =
  let setup = Explorer.major_setup ~quick:true () in
  (* the workload must actually exercise the collector, or the oracle is
     vacuous: check cycles complete on an unperturbed run of the same
     configuration and source *)
  let vm = Vm.create setup.Explorer.config in
  ignore (Vm.eval vm setup.Explorer.source);
  (match vm.Vm.major with
   | Some mj ->
       check_bool "the workload completes collector cycles" true
         (Major.cycles_completed mj >= 1)
   | None -> Alcotest.fail "collector not configured");
  let r = Explorer.explore setup ~seeds:3 in
  check "collector explores clean against the collector-free reference" 0
    (List.length r.Explorer.counterexamples);
  check_bool "the seeds actually perturbed the schedule" true
    (r.Explorer.perturbations > 0)

let major_vs_off_prop =
  let setup = Explorer.major_setup ~quick:true () in
  let reference = lazy (Explorer.reference setup) in
  QCheck.Test.make ~count:15
    ~name:"collector runs match the collector-free observables on every seed"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let o = Explorer.run_seed setup ~seed in
      Explorer.check ~reference:(Lazy.force reference) o = None)

let test_broken_major_found () =
  expect_counterexample "major-nobarrier"
    (Explorer.broken_major_setup ~quick:true ())

(* --- the setup table behind --config --- *)

(* Every name builds a setup, and exactly the three differential
   configurations carry a reference: the same machine and workload with
   only the feature under test turned off, so a caller cannot pair them
   wrongly. *)
let test_setup_table () =
  let feature_off name (c : Config.t) =
    match name with
    | "stealing" -> { c with Config.scheduler = Config.Sched_locked }
    | "calendar" -> { c with Config.engine = Config.Engine_scan }
    | "major" -> { c with Config.major_enabled = false }
    | _ -> Alcotest.failf "%s carries a reference" name
  in
  let carrying =
    List.filter_map
      (fun (name, make) ->
        let s = make ?processors:(Some 3) ?quick:(Some true) () in
        check (name ^ ": busy Processes") 2 s.Explorer.busy;
        Option.map
          (fun (r : Explorer.setup) ->
            check_bool (name ^ ": reference is the feature turned off") true
              (r.Explorer.config = feature_off name s.Explorer.config
               && r.Explorer.source = s.Explorer.source
               && r.Explorer.busy = s.Explorer.busy
               && r.Explorer.reference_setup = None);
            name)
          s.Explorer.reference_setup)
      Explorer.setups
  in
  Alcotest.(check (list string)) "setups carrying a reference"
    [ "stealing"; "calendar"; "major" ] carrying

(* --- fault plumbing --- *)

(* The fault setup arms the watchdog, but an injector that never fires
   must leave the run matching the fault-free reference: both the empty
   plan and a canonical plan (shared with test_faults) whose index lies
   past every query the run makes. *)
let test_fault_setup_no_faults_is_reference () =
  let setup = Explorer.fault_setup ~quick:true () in
  let r = Explorer.reference setup in
  List.iter
    (fun plan ->
      let o = Explorer.run_faults setup (Fault.replay plan) in
      Alcotest.(check (option string)) "a fault-free run passes the oracle"
        None
        (Explorer.check ~reference:r o);
      check_bool "no deadlock was suspected" true (o.Explorer.deadlock = None);
      check_bool "no faults were honoured" true (o.Explorer.fault_plan = []))
    [ []; Testkit.crash_plan 1_000_000 ]

let () =
  let qtests =
    List.map QCheck_alcotest.to_alcotest [ save_load_roundtrip_prop ]
  in
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "explore"
    [ ("policy",
       [ Alcotest.test_case "default tie break" `Quick test_default_tie_break;
         Alcotest.test_case "policy tie break" `Quick test_policy_tie_break;
         Alcotest.test_case "forced preempt flag" `Quick
           test_forced_preempt_flag;
         Alcotest.test_case "jitter keeps timeline" `Quick
           test_jitter_keeps_timeline ]);
      ("seeded",
       [ Alcotest.test_case "deterministic" `Quick test_seeded_deterministic;
         Alcotest.test_case "indices ascend" `Quick test_seeded_indices_ascend ]);
      ("files",
       Alcotest.test_case "malformed rejected" `Quick test_load_rejects_garbage
       :: Alcotest.test_case "duplicate index rejected" `Quick
            test_load_rejects_duplicate_index
       :: Alcotest.test_case "empty replay rejected" `Quick
            test_load_replay_rejects_empty
       :: qtests);
      ("shrink",
       [ Alcotest.test_case "synthetic failure" `Quick test_shrink_synthetic;
         Alcotest.test_case "budget" `Quick test_shrink_budget_respected ]);
      ("oracle",
       [ Alcotest.test_case "ms explores clean" `Quick test_ms_explores_clean;
         Alcotest.test_case "same seed same run" `Quick test_same_seed_same_run;
         Alcotest.test_case "executions independent" `Quick
           test_executions_independent;
         Alcotest.test_case "empty replay is the reference" `Quick
           test_replay_empty_is_reference;
         Alcotest.test_case "unlocked config caught" `Quick
           test_broken_unlocked_found;
         Alcotest.test_case "unbracketed ctx caught" `Quick
           test_broken_ctx_found;
         Alcotest.test_case "setup table and references" `Quick
           test_setup_table;
         Alcotest.test_case "fault setup without faults is the reference"
           `Quick test_fault_setup_no_faults_is_reference ]);
      ("stealing",
       [ Alcotest.test_case "explores clean vs locked" `Quick
           test_stealing_explores_clean_vs_locked;
         q steal_vs_locked_prop;
         Alcotest.test_case "unlocked steal caught every seed" `Quick
           test_broken_steal_found_every_seed ]);
      ("calendar",
       [ Alcotest.test_case "explores clean vs scan" `Quick
           test_calendar_explores_clean_vs_scan;
         q calendar_vs_scan_prop ]);
      ("major",
       [ Alcotest.test_case "explores clean vs collector-free" `Quick
           test_major_explores_clean_vs_off;
         q major_vs_off_prop;
         Alcotest.test_case "broken barrier caught" `Quick
           test_broken_major_found ]) ]
