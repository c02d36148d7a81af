(* Fault-injection campaigns over the macro benchmarks (the robustness
   study).  One row = one seeded run of a reduced macro benchmark in the
   busy system state — five processors, four busy background Processes —
   with the strict sanitizer armed, the spin watchdog on and a seeded
   fault injector installed.  Each run is an explorer execution
   ([Explorer.run_faults]), judged by the explorer's oracle against a
   fault-free reference on the identical configuration:

     Survived   the result, transcript and stable-root census match and
                the post-run heap and scheduler checks pass; the overhead
                column is the extra virtual time recovery cost, in
                permil of the reference run
     Deadlock   the spin watchdog detected an unrecoverable wait (a
                crashed lock holder) and raised a structured report
     Failed     anything else the oracle rejects: a divergence, a
                sanitizer violation or a fatal error — a recovery bug,
                never acceptable

   The reference is computed once per benchmark from an injector-free
   run: with no faults the simulation is bit-identical to the seed, so
   survival is measured against exactly the behaviour the benchmark
   tables report elsewhere. *)

type verdict =
  | Survived of int  (* recovery overhead, permil of reference cycles *)
  | Deadlock_detected of Fault.deadlock_report
  | Failed of string

type row = {
  seed : int;
  bench_key : string;
  plan : Fault.plan;
  verdict : verdict;
}

type summary = {
  campaign : Fault.campaign;
  watchdog_quanta : int;
  rows : row list;
  survived : int;
  deadlocks : int;
  failed : int;
  faults_injected : int;
  mean_overhead_permil : int;  (* across survived rows *)
}

(* The campaign configuration: MS busy with strict checking.  GC and
   mixed campaigns run the parallel scavenger, or the Gc_barrier
   injection point would never be queried. *)
let campaign_config ~campaign ~watchdog_quanta ~backoff_quanta =
  let c = Macro.config_of_state Macro.Ms_busy in
  let scavenge_workers =
    match campaign with
    | Fault.Gc | Fault.Mixed -> 3
    | Fault.Crash | Fault.Stall | Fault.Lock | Fault.Device
    | Fault.Replica ->
        c.Config.scavenge_workers
  in
  { c with
    Config.sanitize = Sanitizer.Strict;
    Config.watchdog_quanta;
    Config.backoff_quanta;
    Config.scavenge_workers;
    (* a crashed processor leaves the survivors running longer, so the
       faulted run tenures more than the fault-free reference.  Old space
       was once doubled to keep that headroom out of the verdict; the
       incremental collector (E18) reclaims the extra churn at the
       original sizing instead *)
    Config.major_enabled = true }

(* One setup per benchmark: the campaign configuration, four busy
   Processes and a reduced-repetition benchmark whose source accumulates
   the per-iteration results, so the final value checks every
   repetition, not just that the loop terminated. *)
let bench_setup ~config ~quick key =
  let b = List.find (fun b -> b.Macro.key = key) Macro.benchmarks in
  let source =
    Printf.sprintf
      "| bench t |\n\
       bench := MacroBenchmarks new.\n\
       bench setUp.\n\
       t := 0.\n\
       %d timesRepeat: [t := t + (%s)].\n\
       t"
      (if quick then 3 else 8) b.Macro.body
  in
  { Explorer.config;
    busy = 4;
    source;
    classes = Macro.benchmark_classes;
    reference_setup = None;
    label = key }

let describe_verdict = function
  | Survived o -> Printf.sprintf "survived (%+d permil)" o
  | Deadlock_detected r ->
      "deadlock detected: " ^ Fault.describe_deadlock r
  | Failed msg -> "FAILED: " ^ msg

let run_campaign ?(campaign = Fault.Mixed) ?(seeds = 8) ?(first_seed = 0)
    ?(quick = false) ?(bench_keys = [ "definition"; "inspector" ])
    ?(watchdog_quanta = Explorer.default_watchdog)
    ?(backoff_quanta = Explorer.default_backoff) ?(log = fun _ -> ()) () =
  let params = Fault.params_of_campaign campaign in
  let config = campaign_config ~campaign ~watchdog_quanta ~backoff_quanta in
  let benches =
    Array.of_list
      (List.map
         (fun key ->
           let setup = bench_setup ~config ~quick key in
           (setup, lazy (Explorer.reference setup)))
         bench_keys)
  in
  let rows =
    List.init seeds (fun i ->
        let seed = first_seed + i in
        let setup, reference = benches.(i mod Array.length benches) in
        let reference = Lazy.force reference in
        let o = Explorer.run_faults setup (Fault.seeded ~params ~seed ()) in
        let verdict =
          match (o.Explorer.deadlock, Explorer.check ~reference o) with
          | Some r, _ -> Deadlock_detected r
          | None, Some what -> Failed what
          | None, None ->
              let ref_cycles = reference.Explorer.cycles in
              Survived ((o.Explorer.cycles - ref_cycles) * 1000 / ref_cycles)
        in
        let plan = o.Explorer.fault_plan in
        log
          (Printf.sprintf "seed %d on %s: %d fault(s), %s" seed
             setup.Explorer.label (List.length plan)
             (describe_verdict verdict));
        { seed; bench_key = setup.Explorer.label; plan; verdict })
  in
  let survived =
    List.length (List.filter (fun r -> match r.verdict with Survived _ -> true | _ -> false) rows)
  in
  let deadlocks =
    List.length
      (List.filter
         (fun r -> match r.verdict with Deadlock_detected _ -> true | _ -> false)
         rows)
  in
  let failed = List.length rows - survived - deadlocks in
  let overheads =
    List.filter_map
      (fun r -> match r.verdict with Survived o -> Some o | _ -> None)
      rows
  in
  { campaign;
    watchdog_quanta;
    rows;
    survived;
    deadlocks;
    failed;
    faults_injected =
      List.fold_left (fun n r -> n + List.length r.plan) 0 rows;
    mean_overhead_permil =
      (match overheads with
       | [] -> 0
       | os -> List.fold_left ( + ) 0 os / List.length os) }

let print fmt s =
  Format.fprintf fmt
    "Fault campaign '%s' (watchdog %d quanta): %d run(s), %d fault(s) \
     injected@."
    (Fault.campaign_name s.campaign)
    s.watchdog_quanta (List.length s.rows) s.faults_injected;
  Format.fprintf fmt "  %-5s %-14s %7s  %s@." "seed" "benchmark" "faults"
    "verdict";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-5d %-14s %7d  %s@." r.seed r.bench_key
        (List.length r.plan)
        (describe_verdict r.verdict))
    s.rows;
  let runs = List.length s.rows in
  Format.fprintf fmt
    "  survival %d/%d (%.1f%%), deadlocks detected %d, failures %d" s.survived
    runs
    (if runs = 0 then 0.0 else 100.0 *. float_of_int s.survived /. float_of_int runs)
    s.deadlocks s.failed;
  if s.survived > 0 then
    Format.fprintf fmt "; mean recovery overhead %+d permil@."
      s.mean_overhead_permil
  else Format.fprintf fmt "@."

(* --- the replica campaign (E19) ---

   The cluster is its own harness: every run already carries a
   non-replicated reference and a divergence detector, so the campaign's
   oracle is simply the outcome — a run is correct when every replica
   converged to the reference fingerprint and no divergence was
   recorded.  The three scenarios aim the crash at the recovery path
   itself: a checkpoint torn by the crash (the rejoin must fall back), a
   second crash in the middle of replay (the rejoin must restart), and a
   double crash of the same replica (recover, then recover again). *)

type replica_row = {
  r_seed : int;
  r_scenario : string;
  r_outcome : Replica.outcome;
  r_correct : bool;
}

type replica_summary = {
  r_rows : replica_row list;
  r_correct_rows : int;
  r_incorrect : int;
  r_crashes : int;
  r_rejoins : int;
  r_fallbacks : int;
}

let run_replica_campaign ?(seeds = 4) ?(first_seed = 0) ?(quick = false)
    ?(log = fun _ -> ()) () =
  let base =
    if quick then
      { Replica.default_params with Replica.requests = 16;
        Replica.checkpoint_every = 6 }
    else { Replica.default_params with Replica.requests = 32 }
  in
  let rows =
    List.concat_map
      (fun (name, scenario) ->
        List.init seeds (fun i ->
            let seed = first_seed + i in
            let p =
              { base with
                Replica.crash_seed = Some (1 + seed);
                Replica.log_seed = 1 + seed;
                Replica.scenario = Some scenario }
            in
            let o = Replica.run p in
            let correct = o.Replica.converged && o.Replica.divergences = [] in
            log
              (Printf.sprintf
                 "seed %d %-16s %d crash(es), %d rejoin(s), %d fallback(s), \
                  availability %d permil: %s"
                 seed name
                 o.Replica.crashes o.Replica.rejoins o.Replica.fallbacks
                 o.Replica.availability_permil
                 (if correct then "converged" else "INCORRECT"));
            { r_seed = seed;
              r_scenario = name;
              r_outcome = o;
              r_correct = correct }))
      Replica.scenarios
  in
  let count f = List.fold_left (fun n r -> n + f r) 0 rows in
  { r_rows = rows;
    r_correct_rows = count (fun r -> if r.r_correct then 1 else 0);
    r_incorrect = count (fun r -> if r.r_correct then 0 else 1);
    r_crashes = count (fun r -> r.r_outcome.Replica.crashes);
    r_rejoins = count (fun r -> r.r_outcome.Replica.rejoins);
    r_fallbacks = count (fun r -> r.r_outcome.Replica.fallbacks) }

let print_replica fmt s =
  Format.fprintf fmt
    "Replica campaign: %d run(s), %d crash(es), %d rejoin(s), %d checkpoint \
     fallback(s)@."
    (List.length s.r_rows) s.r_crashes s.r_rejoins s.r_fallbacks;
  Format.fprintf fmt "  %-5s %-16s %7s %7s %9s %5s  %s@." "seed" "scenario"
    "crashes" "rejoins" "fallbacks" "avail" "verdict";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-5d %-16s %7d %7d %9d %5d  %s@." r.r_seed
        r.r_scenario r.r_outcome.Replica.crashes r.r_outcome.Replica.rejoins
        r.r_outcome.Replica.fallbacks r.r_outcome.Replica.availability_permil
        (if r.r_correct then "converged" else "INCORRECT"))
    s.r_rows;
  Format.fprintf fmt "  correct %d/%d, incorrect %d@." s.r_correct_rows
    (List.length s.r_rows) s.r_incorrect
