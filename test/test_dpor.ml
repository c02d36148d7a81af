(* Tests for the systematic (DPOR) explorer: the guided driver's query
   log, an exhaustiveness oracle on a mini-harness where brute force is
   genuinely exhaustive (DPOR must visit every observable with strictly
   fewer executions), determinism on the deliberately broken whole-VM
   configurations (no seeds involved), trace round-trips through
   load_replay, tie materialization under both engines, and agreement
   between DPOR and seeded sampling on clean configs. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cm = Cost_model.firefly

(* --- mini-harness: a scriptable machine over real Machine + Spinlock ---

   Each vp runs a short straight-line program of lock sections; the step
   loop is the engine's rule (min-clock wins, ties via the policy), and
   the observable is the per-lock acquisition order — exactly the
   Mazurkiewicz trace of the run.  With defers and preempts disabled the
   decision space is ties only, so Brute mode enumerates the complete
   tree and serves as ground truth for the DPOR oracle. *)

type op = Work of int | Lock of string * int

let mini_run programs sched =
  let d = Explore.guided sched in
  let m = Machine.make ~processors:(Array.length programs) cm in
  Machine.set_policy m (Some (Explore.policy d));
  let locks = Hashtbl.create 4 in
  let lock name =
    match Hashtbl.find_opt locks name with
    | Some l -> l
    | None ->
        let l = Spinlock.make ~enabled:true ~cost:cm name in
        Spinlock.attach_machine l m;
        Hashtbl.replace locks name l;
        l
  in
  let pcs = Array.map (fun _ -> ref 0) programs in
  let acquired = Buffer.create 32 in
  let rec loop () =
    match Machine.min_runnable m with
    | None -> ()
    | Some vp ->
        let i = vp.Machine.id in
        let pc = pcs.(i) in
        if !pc >= Array.length programs.(i) then
          Machine.set_state m vp Machine.Halted
        else begin
          (match programs.(i).(!pc) with
           | Work c -> Machine.charge m vp c
           | Lock (name, c) ->
               let fin =
                 Spinlock.locked_op ~vp:i (lock name) ~now:vp.Machine.clock
                   ~op_cycles:c
               in
               Buffer.add_string acquired (Printf.sprintf "%s:%d;" name i);
               vp.Machine.clock <- fin);
          incr pc
        end;
        loop ()
  in
  loop ();
  { Explore.Dpor.xlog = Explore.query_log d;
    obs = Buffer.contents acquired;
    failure = None }

let explore_mini ~mode ?(max_flips = 8) ?(budget = 4096) programs =
  Explore.Dpor.systematic ~mode ~max_flips ~budget ~defers:false
    ~preempts:false
    ~run:(mini_run programs)
    ()

let obs_set (r : Explore.Dpor.result) =
  List.sort_uniq compare (List.map fst r.Explore.Dpor.obs_witness)

(* Two symmetric vps contending on two locks plus one lock-free vp whose
   tie choices are pure scheduling noise: brute force enumerates the
   complete tie tree including the noise; DPOR must reach the same
   observable set (every Mazurkiewicz trace has a representative) in
   strictly fewer executions, pruning the independent interleavings. *)
let two_vp_programs =
  [| [| Lock ("A", 10); Work 5; Lock ("B", 10) |];
     [| Lock ("A", 10); Work 5; Lock ("B", 10) |];
     [| Work 10; Work 10; Work 10 |] |]

let dump_stats name (r : Explore.Dpor.result) =
  let s = r.Explore.Dpor.stats in
  Printf.eprintf
    "STATS %s: executions=%d obs=%d traces=%d races=%d pruned=%d\n%!" name
    s.Explore.Dpor.executions s.Explore.Dpor.distinct_obs
    s.Explore.Dpor.distinct_traces s.Explore.Dpor.races
    s.Explore.Dpor.pruned

let test_exhaustiveness_two_vps () =
  let brute = explore_mini ~mode:Explore.Dpor.Brute two_vp_programs in
  let dpor = explore_mini ~mode:Explore.Dpor.Dpor two_vp_programs in
  dump_stats "2vp-brute" brute;
  dump_stats "2vp-dpor" dpor;
  check_bool "brute force exhausted its space" true
    brute.Explore.Dpor.stats.Explore.Dpor.exhausted;
  check_bool "dpor exhausted its space" true
    dpor.Explore.Dpor.stats.Explore.Dpor.exhausted;
  check_bool "several observables exist (the workload really races)" true
    (List.length (obs_set brute) >= 2);
  Alcotest.(check (list string))
    "dpor covers exactly the brute-force observable set" (obs_set brute)
    (obs_set dpor);
  check_bool
    (Printf.sprintf "dpor ran strictly fewer executions (%d < %d)"
       dpor.Explore.Dpor.stats.Explore.Dpor.executions
       brute.Explore.Dpor.stats.Explore.Dpor.executions)
    true
    (dpor.Explore.Dpor.stats.Explore.Dpor.executions
     < brute.Explore.Dpor.stats.Explore.Dpor.executions);
  check_bool "dpor reports pruned alternatives" true
    (dpor.Explore.Dpor.stats.Explore.Dpor.pruned > 0)

let three_vp_programs =
  [| [| Lock ("A", 10) |]; [| Lock ("A", 10) |]; [| Lock ("A", 10) |] |]

(* Three vps, one lock: the observables are the 6 acquisition orders (or
   however many the engine's clock arithmetic can reach); DPOR and brute
   force must agree on which are reachable. *)
let test_exhaustiveness_three_vps () =
  let brute = explore_mini ~mode:Explore.Dpor.Brute three_vp_programs in
  let dpor = explore_mini ~mode:Explore.Dpor.Dpor three_vp_programs in
  dump_stats "3vp-brute" brute;
  dump_stats "3vp-dpor" dpor;
  check_bool "brute force exhausted its space" true
    brute.Explore.Dpor.stats.Explore.Dpor.exhausted;
  check_bool "dpor exhausted its space" true
    dpor.Explore.Dpor.stats.Explore.Dpor.exhausted;
  check_bool "at least three acquisition orders are reachable" true
    (List.length (obs_set brute) >= 3);
  Alcotest.(check (list string))
    "dpor covers exactly the brute-force observable set" (obs_set brute)
    (obs_set dpor);
  check_bool "dpor ran no more executions than brute force" true
    (dpor.Explore.Dpor.stats.Explore.Dpor.executions
     <= brute.Explore.Dpor.stats.Explore.Dpor.executions)

(* Distinct Mazurkiewicz fingerprints never exceed distinct observables
   here, because the observable *is* the trace. *)
let test_trace_fingerprint_consistent () =
  let dpor = explore_mini ~mode:Explore.Dpor.Dpor two_vp_programs in
  check_bool "distinct traces >= distinct observables" true
    (dpor.Explore.Dpor.stats.Explore.Dpor.distinct_traces
     >= dpor.Explore.Dpor.stats.Explore.Dpor.distinct_obs);
  (* replaying a witness reproduces its observable *)
  List.iter
    (fun (obs, sched) ->
      let x = mini_run two_vp_programs sched in
      Alcotest.(check string) "witness schedule reproduces its observable"
        obs x.Explore.Dpor.obs)
    dpor.Explore.Dpor.obs_witness

(* --- the guided driver on whole VMs --- *)

let quick_setup = Explorer.ms_setup ~quick:true ()

let test_guided_logs_queries () =
  let o, xlog = Explorer.run_guided quick_setup [] in
  check_bool "the run completed" true (o.Explorer.obs <> None);
  check "one log entry per query" o.Explorer.queries (Array.length xlog);
  check_bool "the log is non-trivial" true (Array.length xlog > 100);
  let has p = Array.exists p xlog in
  check_bool "acquires were logged" true
    (has (fun e ->
         match e.Explore.kind with Explore.Qacquire _ -> true | _ -> false));
  check_bool "section exits were logged" true
    (has (fun e ->
         match e.Explore.kind with Explore.Qexit _ -> true | _ -> false));
  let ascending = ref true in
  Array.iteri
    (fun i e -> if e.Explore.q <> i then ascending := false)
    xlog;
  check_bool "query indices are dense and ascending" true !ascending

(* Replaying the same forced prefix must reproduce the identical log —
   the determinism the whole DFS rests on. *)
let test_guided_deterministic () =
  let _, l1 = Explorer.run_guided quick_setup [] in
  let _, l2 = Explorer.run_guided quick_setup [] in
  check_bool "identical query logs" true (l1 = l2)

(* choose_tie must be exercised (and logged) under both engines: polling
   idle processors and parking them leave different min-clock ties for
   the pending-heap pop to materialize. *)
let engine_logs_ties name setup =
  let o, xlog = Explorer.run_guided setup [] in
  check_bool (name ^ ": run completed") true (o.Explorer.obs <> None);
  check_bool
    (name ^ ": min-clock ties were materialized and logged")
    true
    (Array.exists
       (fun e ->
         match e.Explore.kind with
         | Explore.Qtie cands -> Array.length cands >= 2
         | _ -> false)
       xlog)

let test_scan_ties_logged () = engine_logs_ties "scan" quick_setup

let test_calendar_ties_logged () =
  engine_logs_ties "calendar" (Explorer.calendar_setup ~quick:true ())

(* --- whole-VM DPOR: clean and broken configurations --- *)

(* On the published configuration a small DPOR budget must find races to
   branch on and zero failures. *)
let test_dpor_ms_clean () =
  let r = Explorer.dpor ~budget:6 quick_setup () in
  let s = r.Explorer.dpor_result.Explore.Dpor.stats in
  check_bool "several executions ran" true
    (s.Explore.Dpor.executions >= 2);
  check_bool "races were observed" true (s.Explore.Dpor.races > 0);
  check "no failures on the published configuration" 0
    (List.length r.Explorer.dpor_result.Explore.Dpor.failures);
  check "a single observable" 1 s.Explore.Dpor.distinct_obs;
  check_bool "no counterexample" true (r.Explorer.dpor_counterexample = None)

(* The deliberately broken configurations must be caught without any
   seed, on every invocation, with identical results (nothing in the
   systematic explorer is randomized). *)
let dpor_finds name setup =
  let run () = Explorer.dpor ~budget:3 ~shrink_budget:40 setup () in
  let r1 = run () in
  let r2 = run () in
  check_bool (name ^ ": failures found deterministically, run 1") true
    (r1.Explorer.dpor_result.Explore.Dpor.failures <> []);
  check_bool (name ^ ": failures found deterministically, run 2") true
    (r2.Explorer.dpor_result.Explore.Dpor.failures <> []);
  check_bool (name ^ ": both runs agree exactly") true
    (r1.Explorer.dpor_result.Explore.Dpor.failures
     = r2.Explorer.dpor_result.Explore.Dpor.failures
     && r1.Explorer.dpor_result.Explore.Dpor.stats
        = r2.Explorer.dpor_result.Explore.Dpor.stats);
  (match r1.Explorer.dpor_counterexample with
   | None -> Alcotest.fail (name ^ ": expected a shrunk counterexample")
   | Some c ->
       check_bool (name ^ ": the shrunk schedule reproduces") true
         c.Explorer.reproduces;
       check_bool (name ^ ": shrunk no larger than the original") true
         (List.length c.Explorer.shrunk
          <= List.length c.Explorer.original));
  r1

let test_dpor_finds_broken_ctx () =
  ignore (dpor_finds "ctx-unbracketed" (Explorer.broken_ctx_setup ~quick:true ()))

let test_dpor_finds_broken_steal () =
  ignore
    (dpor_finds "steal-unlocked" (Explorer.broken_steal_setup ~quick:true ()))

(* A non-empty failing schedule round-trips through the trace-file
   format and load_replay (which refuses empty traces — the broken
   configs also fail on the default schedule, so the round-trip needs a
   branched one).  Brute mode guarantees branched schedules exist. *)
let test_dpor_failure_replays_from_file () =
  let setup = Explorer.broken_ctx_setup ~quick:true () in
  let r =
    Explorer.dpor ~mode:Explore.Dpor.Brute ~budget:3 ~shrink_budget:0 setup ()
  in
  let failures = r.Explorer.dpor_result.Explore.Dpor.failures in
  match List.find_opt (fun (s, _) -> s <> []) failures with
  | None -> Alcotest.fail "expected a failing non-empty schedule"
  | Some (sched, _) ->
      let file = Filename.temp_file "mst-dpor" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Explore.save file sched;
          let loaded = Explore.load_replay file in
          check_bool "load_replay returns the saved schedule" true
            (loaded = sched);
          let reference =
            Explorer.reference (Explorer.ms_setup ~quick:true ())
          in
          let o = Explorer.run_schedule setup loaded in
          check_bool "the replayed schedule still fails the oracle" true
            (Explorer.check ~reference o <> None))

(* --- DPOR vs seeded sampling on clean configs --- *)

(* The two explorers must agree that clean configurations are clean:
   every DPOR execution and every sampled seed matches the (scan,
   locked) reference observables — across the scan engine, the calendar
   engine and the stealing scheduler. *)
let dpor_vs_sampling_prop =
  let setups =
    [ ("ms", Explorer.ms_setup ~quick:true ());
      ("calendar", Explorer.calendar_setup ~quick:true ());
      ("stealing", Explorer.stealing_setup ~quick:true ()) ]
  in
  QCheck.Test.make ~count:6
    ~name:"dpor and seeded sampling agree on observables for clean configs"
    QCheck.(pair (int_range 0 2) (int_range 0 1_000_000))
    (fun (which, seed) ->
      let _, setup = List.nth setups which in
      let d = Explorer.dpor ~budget:3 setup () in
      let sampled = Explorer.explore setup ~first_seed:seed ~seeds:1 in
      d.Explorer.dpor_result.Explore.Dpor.failures = []
      && d.Explorer.dpor_result.Explore.Dpor.stats.Explore.Dpor.distinct_obs
         = 1
      && sampled.Explorer.counterexamples = [])

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "dpor"
    [ ("exhaustiveness",
       [ Alcotest.test_case "2 vps, 2 locks: dpor = brute, fewer runs" `Quick
           test_exhaustiveness_two_vps;
         Alcotest.test_case "3 vps, 1 lock: dpor = brute" `Quick
           test_exhaustiveness_three_vps;
         Alcotest.test_case "trace fingerprints and witnesses" `Quick
           test_trace_fingerprint_consistent ]);
      ("guided",
       [ Alcotest.test_case "logs every query" `Quick test_guided_logs_queries;
         Alcotest.test_case "deterministic" `Quick test_guided_deterministic;
         Alcotest.test_case "scan ties logged" `Quick test_scan_ties_logged;
         Alcotest.test_case "calendar ties logged" `Quick
           test_calendar_ties_logged ]);
      ("whole-vm",
       [ Alcotest.test_case "ms explores clean" `Quick test_dpor_ms_clean;
         Alcotest.test_case "ctx-unbracketed caught seedlessly" `Quick
           test_dpor_finds_broken_ctx;
         Alcotest.test_case "steal-unlocked caught seedlessly" `Quick
           test_dpor_finds_broken_steal;
         Alcotest.test_case "failing schedule replays from file" `Quick
           test_dpor_failure_replays_from_file ]);
      ("agreement", [ q dpor_vs_sampling_prop ]) ]
