(* mst - the Multiprocessor Smalltalk command line.

     mst eval "3 + 4"                     evaluate an expression
     mst eval -p 5 --state busy EXPR      with background competition
     mst run FILE.st                      load classes, then evaluate Main
     mst explore --seeds=50               fuzz the schedule, shrink failures
     mst explore --dpor --budget=64       systematic exploration (E20)
     mst explore --replay=F               replay a saved decision trace
     mst faults --campaign=crash          seeded fault campaign over benchmarks
     mst faults --deadlock --dump=F       hunt + shrink a watchdog deadlock
     mst faults --replay=F                replay a saved fault plan
     mst serve -p 8 --sessions 4          image-server workload (E17)
     mst cluster --crash-seed=5           replicated image cluster (E19)
     mst disasm CLASS SELECTOR            disassemble a kernel method
     mst decompile CLASS SELECTOR         decompile a kernel method
     mst browse CLASS                     definition, hierarchy, selectors

   Exit status: 1 when a run or an oracle fails, 2 for a refused argument
   or an unreadable input file. *)

open Cmdliner

let processors =
  let doc = "Number of simulated processors." in
  Arg.(value & opt int 1 & info [ "p"; "processors" ] ~doc)

let state =
  let doc = "Background competition: none, idle or busy (four Processes)." in
  let states = [ ("none", `None); ("idle", `Idle); ("busy", `Busy) ] in
  Arg.(value & opt (enum states) `None & info [ "state" ] ~doc)

let sanitize =
  let doc =
    "Serialization sanitizer: $(b,off), $(b,report) (accumulate violations \
     into the report) or $(b,strict) (fail on the first violation)."
  in
  Arg.(value & opt (enum Sanitizer.modes) Sanitizer.Off
       & info [ "sanitize" ] ~doc)

let scheduler =
  let doc =
    "Ready-queue discipline: $(b,locked) (one global queue under the \
     scheduler lock) or $(b,stealing) (per-processor deques with work \
     stealing, E16)."
  in
  let strategies =
    [ ("locked", Config.Sched_locked); ("stealing", Config.Sched_stealing) ]
  in
  Arg.(value & opt (enum strategies) Config.Sched_locked
       & info [ "scheduler" ] ~doc)

let trace_dump =
  let doc = "After the run, print the last $(docv) sanitizer trace events." in
  Arg.(value & opt int 0 & info [ "trace-dump" ] ~docv:"N" ~doc)

let engine default =
  let doc =
    "Simulation engine: $(b,scan) (idle processors poll the ready queue \
     every few quanta) or $(b,calendar) (idle processors park until a \
     wakeup: ready work, input or a timer, E17)."
  in
  let engines =
    [ ("scan", Config.Engine_scan); ("calendar", Config.Engine_calendar) ]
  in
  Arg.(value & opt (enum engines) default & info [ "engine" ] ~doc)

let major =
  let doc =
    "Run the incremental old-space mark-sweep collector (E18): bounded \
     slices at step boundaries reclaim tenured garbage onto free lists, \
     and $(b,Image_full) becomes a last resort after a forced cycle."
  in
  Arg.(value & flag & info [ "major" ] ~doc)

let major_budget =
  let doc =
    "Target collector cycles per major slice (with $(b,--major)); smaller \
     budgets mean shorter pauses and more slices per cycle."
  in
  Arg.(value & opt (some int) None & info [ "major-budget" ] ~docv:"CYCLES"
       ~doc)

(* Refuse the invocation as a usage error: one [error:] line, exit 2. *)
let refuse fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2)
    fmt

(* A count of zero runs nothing (or, for processors, cannot build a
   machine), and a run that did nothing must not report success: refuse
   it as a usage error. *)
let require_positive flag n =
  if n <= 0 then refuse "%s must be positive, got %d" flag n

(* The VM flags eval, run and serve share, assembled into a configuration:
   baseline BS for one processor on the locked scheduler with no
   background Processes, the published MS otherwise.  The result still
   takes [~background], whether the run adds competing Processes; serve
   passes its own engine default and processor floor. *)
let vm_config ?(default_engine = Config.Engine_scan) ?(min_processors = 1) () =
  let make processors sanitize scheduler engine major major_budget
      ~background =
    require_positive "-p" processors;
    let processors = max processors min_processors in
    let base =
      if processors <= 1 && (not background)
         && scheduler = Config.Sched_locked
      then Config.baseline_bs ()
      else Config.ms ~processors ()
    in
    { base with
      Config.sanitize; scheduler; engine; major_enabled = major;
      major_budget =
        Option.value major_budget ~default:base.Config.major_budget }
  in
  Term.(
    const make $ processors $ sanitize $ scheduler $ engine default_engine
    $ major $ major_budget)

let make_vm config state =
  let vm = Vm.create (config ~background:(state <> `None)) in
  (match state with
   | `Idle -> ignore (Workloads.spawn_idle vm 4)
   | `Busy -> ignore (Workloads.spawn_busy vm 4)
   | `None -> ());
  vm

(* The flags explore and faults share.  Each command keeps its own
   default and help text where they differ. *)
let seeds ~default ~doc = Arg.(value & opt int default & info [ "seeds" ] ~doc)

let first_seed =
  let doc = "First seed (seeds run from $(docv) upward)." in
  Arg.(value & opt int 0 & info [ "first-seed" ] ~docv:"N" ~doc)

let quick =
  let doc = "Shorter workload (for smoke tests)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let shrink_budget ~doc =
  Arg.(value & opt int 120 & info [ "shrink-budget" ] ~doc)

let replay ~doc =
  Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE" ~doc)

(* Read a file named on the command line.  A malformed one, or one that
   cannot be read (Cmdliner's [file] accepts a directory), is a usage
   error: exit 2 with a message, never an uncaught exception. *)
let read_input load path =
  try load path with
  | Failure msg -> refuse "%s" msg
  | Sys_error msg when String.starts_with ~prefix:path msg -> refuse "%s" msg
  | Sys_error msg -> refuse "%s: %s" path msg

(* Save a shrunk plan, then prove the file a faithful reproducer for
   --replay: reload it, re-run it through [fails] and report.  Returns
   whether the reloaded plan still fails. *)
let save_and_confirm ~save ~load ~noun ~fails file plan =
  save file plan;
  let reproduces = fails (load file) in
  Printf.printf "  shrunk to %d %s(s) -> %s (replay from file %s)\n"
    (List.length plan) noun file
    (if reproduces then "reproduces" else "DOES NOT reproduce");
  reproduces

let report_time vm =
  Printf.printf "(simulated: %.3f s, scavenges: %d)\n" (Vm.seconds vm)
    (Heap.scavenge_count vm.Vm.heap)

(* Prints the sanitizer report and fails the invocation when violations
   accumulated: a scripted `--sanitize=report` run must exit nonzero just
   as a strict run does, or CI would scroll the violations past. *)
let report_sanitizer vm ~trace_dump =
  let san = Vm.sanitizer vm in
  if Sanitizer.active san then Sanitizer.print_report san;
  if trace_dump > 0 then
    Trace.dump Format.std_formatter (Sanitizer.trace san) ~n:trace_dump;
  if Sanitizer.violation_count san > 0 then exit 1

(* The one place a raised failure becomes an exit status.  A run that
   fails (a fatal fault, a suspected deadlock, a sanitizer violation, a
   VM error, an unanswered message) exits 1 after printing what happened
   and, when [vm] is given, its sanitizer report and trace-ring tail.
   (The ring only records while the sanitizer is active, so pair
   `--trace-dump` with `--sanitize=report` or `strict`.)  Input the
   tools refuse (unparsable source, a malformed class file, cluster
   parameters out of range, a corrupt command log or checkpoint) exits 2
   through [refuse]. *)
let catching_faults ?vm ?(trace_dump = 0) f =
  let failed fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline msg;
        Option.iter (fun vm -> report_sanitizer vm ~trace_dump) vm;
        exit 1)
      fmt
  in
  try f () with
  | Fault.Fatal info -> failed "fatal: %s" (Fault.describe_fatal info)
  | Fault.Deadlock_suspected r ->
      failed "deadlock: %s" (Fault.describe_deadlock r)
  | Sanitizer.Violation msg -> failed "sanitizer: %s" msg
  | State.Vm_error msg | Vm.Error msg -> failed "error: %s" msg
  | Interp.Does_not_understand msg -> failed "doesNotUnderstand: %s" msg
  | Lexer.Error msg | Parser.Error msg | Codegen.Error msg
  | Class_file.Error msg | Class_builder.Error msg
  | Replica.Cluster_error msg ->
      refuse "%s" msg
  | Cmdlog.Corrupt { path; what } ->
      refuse "corrupt command log %s: %s" path what
  | Snapshot.Corrupt { path; what } ->
      refuse "corrupt checkpoint %s: %s" path what

(* Cmd.info with the exit statuses above, so every --help lists them. *)
let cmd_info ?version name ~doc =
  let exits =
    [ Cmd.Exit.info 0 ~doc:"on success.";
      Cmd.Exit.info 1 ~doc:"when a run or an oracle fails.";
      Cmd.Exit.info 2
        ~doc:"for a refused argument or an unreadable input file.";
      Cmd.Exit.info Cmd.Exit.internal_error
        ~doc:"on unexpected internal errors (bugs)." ]
  in
  Cmd.info ?version name ~doc ~exits

(* --- eval --- *)

let eval_cmd =
  let expr = Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR") in
  let run config state trace_dump expr =
    let vm = make_vm config state in
    catching_faults ~vm ~trace_dump (fun () ->
        print_endline (Vm.eval_to_string vm expr));
    let tr = Vm.transcript vm in
    if tr <> "" then Printf.printf "--- transcript ---\n%s\n" tr;
    report_time vm;
    report_sanitizer vm ~trace_dump
  in
  Cmd.v (cmd_info "eval" ~doc:"Evaluate a Smalltalk expression")
    Term.(const run $ vm_config () $ state $ trace_dump $ expr)

(* --- run --- *)

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run config state trace_dump file =
    let vm = make_vm config state in
    let source =
      read_input
        (fun f -> In_channel.with_open_text f In_channel.input_all)
        file
    in
    catching_faults ~vm ~trace_dump (fun () ->
        Vm.load_classes vm source;
        match Universe.find_class vm.Vm.u "Main" with
        | Some _ -> print_endline (Vm.eval_to_string vm "Main new main")
        | None -> print_endline "(no Main class; classes loaded)");
    let tr = Vm.transcript vm in
    if tr <> "" then print_string tr;
    report_time vm;
    report_sanitizer vm ~trace_dump
  in
  Cmd.v
    (cmd_info "run"
       ~doc:"Load a class file (image-definition format) and run Main new main")
    Term.(const run $ vm_config () $ state $ trace_dump $ file)

(* --- explore --- *)

let explore_cmd =
  let e_processors =
    let doc = "Number of simulated processors." in
    Arg.(value & opt int 5 & info [ "p"; "processors" ] ~doc)
  in
  let config_name =
    let doc =
      "Configuration to explore: $(b,ms) (published MS, must stay clean), \
       $(b,stealing) (work-stealing scheduler checked differentially \
       against the locked queue — must stay clean), $(b,calendar) \
       (event-calendar engine checked differentially against the scan \
       engine, E17 — must stay clean), $(b,major) (incremental old-space \
       collector checked differentially against a collector-free run, \
       E18 — must stay clean), $(b,bs-unlocked) \
       (locking disabled on several processors — broken on purpose), \
       $(b,ctx-unbracketed) (shared free-context list with its lock \
       bracket skipped — broken on purpose), $(b,steal-unlocked) (deque \
       lock brackets skipped — broken on purpose) or $(b,major-nobarrier) \
       (the collector's write barrier disabled — broken on purpose)."
    in
    let names = List.map (fun (name, _) -> (name, name)) Explorer.setups in
    Arg.(value & opt (enum names) "ms" & info [ "config" ] ~doc)
  in
  let expect_violation =
    let doc =
      "Succeed only when the exploration (or replay) surfaces a failure — \
       for the broken configurations."
    in
    Arg.(value & flag & info [ "expect-violation" ] ~doc)
  in
  let dump_prefix =
    let doc = "Write shrunk counterexample traces to $(docv)-seedN.trace." in
    Arg.(value & opt string "explore-ctr" & info [ "dump" ] ~docv:"PREFIX" ~doc)
  in
  let dpor =
    let doc =
      "Systematic exploration: dynamic partial-order reduction with sleep \
       sets over the recorded decision points instead of seeded sampling \
       (E20).  Branches only where an executed run shows a race."
    in
    Arg.(value & flag & info [ "dpor" ] ~doc)
  in
  let brute =
    let doc =
      "Systematic exploration without the reduction: enumerate every \
       alternative at every decision point within the bounds.  Ground \
       truth for $(b,--dpor) on tiny workloads; explodes on real ones."
    in
    Arg.(value & flag & info [ "brute" ] ~doc)
  in
  let max_preemptions =
    let doc =
      "Preemption bound for systematic exploration: at most $(docv) forced \
       decisions per schedule."
    in
    Arg.(value & opt int 2 & info [ "max-preemptions" ] ~docv:"N" ~doc)
  in
  let max_branch =
    let doc =
      "Ignore decision points past this query index during systematic \
       exploration (bounds the tree depth on long workloads)."
    in
    Arg.(value & opt int max_int & info [ "max-branch" ] ~docv:"Q" ~doc)
  in
  let budget =
    let doc = "Execution budget for systematic exploration." in
    Arg.(value & opt int 256 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let stats =
    let doc =
      "Print detailed systematic-exploration statistics (pruned \
       alternatives, sleep-set skips, bound hits)."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let run processors config_name seeds first_seed quick replay
      expect_violation shrink_budget dump_prefix dpor brute max_preemptions
      max_branch budget stats =
    require_positive "-p" processors;
    let setup =
      (List.assoc config_name Explorer.setups) ~processors ~quick ()
    in
    let reference = lazy (Explorer.reference setup) in
    let replay_check sched =
      Explorer.check ~reference:(Lazy.force reference)
        (Explorer.run_schedule setup sched)
    in
    (* Save a counterexample's shrunk trace and prove the file replays to
       a failure, so `--replay=FILE` is a faithful reproducer. *)
    let confirm file (c : Explorer.counterexample) =
      let from_file =
        save_and_confirm ~save:Explore.save ~load:Explore.load
          ~noun:"decision" ~fails:(fun s -> replay_check s <> None) file
          c.Explorer.shrunk
      in
      c.Explorer.reproduces && from_file
    in
    let finish_with ~failed =
      if expect_violation && not failed then begin
        Printf.printf "FAIL: expected a violation, found none\n";
        exit 1
      end
      else if (not expect_violation) && failed then exit 1
      else exit 0
    in
    match replay with
    | Some file ->
        let sched = read_input Explore.load_replay file in
        Printf.printf "replaying %d decision(s) from %s on %s\n"
          (List.length sched) file setup.Explorer.label;
        (match replay_check sched with
         | Some what ->
             Printf.printf "replay fails the oracle: %s\n" what;
             finish_with ~failed:true
         | None ->
             Printf.printf "replay matches the reference observables\n";
             finish_with ~failed:false)
    | None when dpor || brute ->
        let mode =
          if brute then Explore.Dpor.Brute else Explore.Dpor.Dpor
        in
        require_positive "--budget" budget;
        Printf.printf
          "systematic exploration (%s) of %s: budget %d, at most %d forced \
           decision(s) per schedule, strict sanitizer, %d busy background \
           Process(es)\n%!"
          (if brute then "brute force" else "dpor")
          setup.Explorer.label budget max_preemptions setup.Explorer.busy;
        let r =
          Explorer.dpor ~mode ~max_branch ~max_flips:max_preemptions ~budget
            ~shrink_budget setup
            ~log:(fun line -> Printf.printf "%s\n%!" line)
            ()
        in
        let s = r.Explorer.dpor_result.Explore.Dpor.stats in
        (* a systematic run that never executed anything proves nothing *)
        if s.Explore.Dpor.executions = 0 then
          refuse
            "no executions ran (empty decision space or exhausted budget) — \
             refusing to report vacuous success";
        Printf.printf
          "%d execution(s), %d distinct trace(s), %d observable(s), %d \
           race(s), %d failing schedule(s)%s\n"
          s.Explore.Dpor.executions s.Explore.Dpor.distinct_traces
          s.Explore.Dpor.distinct_obs s.Explore.Dpor.races
          (List.length r.Explorer.dpor_result.Explore.Dpor.failures)
          (if s.Explore.Dpor.exhausted then " — space exhausted"
           else " — budget reached");
        if stats then
          Printf.printf
            "pruned: %d brute-eligible alternative(s) never run; %d \
             sleep-set skip(s); %d insertion(s) refused by the bounds\n"
            s.Explore.Dpor.pruned s.Explore.Dpor.sleep_skips
            s.Explore.Dpor.bounded;
        (match r.Explorer.dpor_counterexample with
         | None -> finish_with ~failed:false
         | Some c ->
             Printf.printf "first failure: %s\n" c.Explorer.what;
             if c.Explorer.shrunk = [] then
               Printf.printf
                 "  fails on the default schedule (empty trace; nothing to \
                  replay)\n"
             else if not (confirm (dump_prefix ^ "-dpor.trace") c) then begin
               Printf.printf
                 "FAIL: the shrunk counterexample did not reproduce\n";
               exit 1
             end;
             finish_with ~failed:true)
    | None ->
        require_positive "--seeds" seeds;
        Printf.printf
          "exploring %s: %d seed(s) from %d, strict sanitizer, %d busy \
           background Process(es)\n%!"
          setup.Explorer.label seeds first_seed setup.Explorer.busy;
        let report =
          Explorer.explore ~shrink_budget ~first_seed setup ~seeds
            ~log:(fun line -> Printf.printf "%s\n%!" line)
        in
        Printf.printf
          "%d seed(s), %d distinct schedule(s), %d preemption-point \
           quer(ies), %d perturbation(s), %d counterexample(s)\n"
          report.Explorer.seeds_run report.Explorer.distinct
          report.Explorer.queries report.Explorer.perturbations
          (List.length report.Explorer.counterexamples);
        let all_reproduce =
          List.fold_left
            (fun ok (c : Explorer.counterexample) ->
              let seed = Option.get c.Explorer.seed in
              Printf.printf "seed %d: %s\n" seed c.Explorer.what;
              confirm (Printf.sprintf "%s-seed%d.trace" dump_prefix seed) c
              && ok)
            true report.Explorer.counterexamples
        in
        let failed = report.Explorer.counterexamples <> [] in
        if failed && not all_reproduce then begin
          Printf.printf "FAIL: a shrunk counterexample did not reproduce\n";
          exit 1
        end;
        finish_with ~failed
  in
  Cmd.v
    (cmd_info "explore"
       ~doc:
         "Explore perturbed schedules with the strict sanitizer and a \
          differential oracle; shrink and save any counterexample")
    Term.(
      const run $ e_processors $ config_name
      $ seeds ~default:20 ~doc:"Number of exploration seeds to run."
      $ first_seed $ quick
      $ replay ~doc:"Replay a saved decision trace instead of exploring."
      $ expect_violation
      $ shrink_budget ~doc:"Replays allowed for shrinking each counterexample."
      $ dump_prefix $ dpor $ brute $ max_preemptions $ max_branch $ budget
      $ stats)

(* --- faults --- *)

let faults_cmd =
  let campaign_conv =
    Arg.conv
      ( (fun s ->
          match Fault.campaign_of_name s with
          | Some c -> Ok c
          | None -> Error (`Msg (Printf.sprintf "unknown campaign %S" s))),
        fun fmt c -> Format.pp_print_string fmt (Fault.campaign_name c) )
  in
  let campaign =
    let doc =
      "Fault family to sample: $(b,crash), $(b,stall), $(b,lock), \
       $(b,device), $(b,gc), $(b,mixed) or $(b,replica) (crash-and-rejoin \
       scenarios over the replicated image cluster, E19).  Defaults to \
       $(b,mixed) for campaigns and $(b,lock) for $(b,--deadlock) hunts."
    in
    Arg.(value & opt (some campaign_conv) None & info [ "campaign" ] ~doc)
  in
  let watchdog =
    let doc =
      "Spin-watchdog bound in Delay quanta (0 disables the watchdog)."
    in
    Arg.(value & opt int Fault_study.default_watchdog
         & info [ "watchdog" ] ~docv:"QUANTA" ~doc)
  in
  let backoff =
    let doc =
      "Retries before a contended spin starts exponential backoff \
       (0 disables backoff)."
    in
    Arg.(value & opt int Fault_study.default_backoff
         & info [ "backoff" ] ~docv:"RETRIES" ~doc)
  in
  let deadlock =
    let doc =
      "Hunt for a watchdog-detected deadlock (a crashed lock holder), \
       shrink its fault plan to a minimal reproducer and confirm the \
       replay."
    in
    Arg.(value & flag & info [ "deadlock" ] ~doc)
  in
  let dump =
    let doc = "With $(b,--deadlock): save the shrunk fault plan to $(docv)." in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE" ~doc)
  in
  let expect_deadlock =
    let doc =
      "Succeed only when the replayed plan still trips the watchdog."
    in
    Arg.(value & flag & info [ "expect-deadlock" ] ~doc)
  in
  let setup_for ~quick ~watchdog ~backoff =
    let quick = if quick then Some true else None in
    Explorer.fault_setup ?quick ~watchdog_quanta:watchdog
      ~backoff_quanta:backoff ()
  in
  let run_replay ~file ~quick ~watchdog ~backoff ~expect_deadlock =
    let plan = read_input Fault.load_replay file in
    Printf.printf "replaying %d fault(s) from %s\n%!" (List.length plan) file;
    let setup = setup_for ~quick ~watchdog ~backoff in
    let o = Explorer.run_faults setup (Fault.replay plan) in
    match o.Explorer.deadlock with
    | Some r ->
        Printf.printf "deadlock reproduced: %s\n" (Fault.describe_deadlock r);
        exit (if expect_deadlock then 0 else 1)
    | None ->
        (match o.Explorer.error with
         | Some e ->
             Printf.printf "replay failed without a deadlock: %s\n" e;
             exit 1
         | None ->
             Printf.printf "replay completed without a deadlock\n";
             if expect_deadlock then begin
               Printf.printf "FAIL: expected the watchdog to trip\n";
               exit 1
             end;
             exit 0)
  in
  let run_hunt ~campaign ~seeds ~first_seed ~quick ~watchdog ~backoff
      ~shrink_budget ~dump =
    if watchdog <= 0 then
      refuse "--deadlock needs the watchdog (--watchdog > 0)";
    let campaign = Option.value campaign ~default:Fault.Lock in
    Printf.printf
      "hunting a deadlock: campaign %s, %d seed(s) from %d, watchdog %d \
       quanta\n%!"
      (Fault.campaign_name campaign) seeds first_seed watchdog;
    let setup = setup_for ~quick ~watchdog ~backoff in
    let h =
      Explorer.hunt_deadlock ~params:(Fault.params_of_campaign campaign)
        ~shrink_budget ~first_seed setup ~seeds
        ~log:(fun line -> Printf.printf "%s\n%!" line)
    in
    match (h.Explorer.found_seed, h.Explorer.report) with
    | None, _ | _, None ->
        Printf.printf "no deadlock in %d seed(s)\n" h.Explorer.hunt_seeds;
        exit 1
    | Some seed, Some r ->
        Printf.printf "seed %d: %s\n" seed (Fault.describe_deadlock r);
        Printf.printf
          "shrunk %d fault(s) to %d in %d replay(s); independent replays %s\n"
          (List.length h.Explorer.original_plan)
          (List.length h.Explorer.shrunk_plan)
          h.Explorer.hunt_probes
          (if h.Explorer.replay_matches then "match" else "DIVERGE");
        (match dump with
         | None -> ()
         | Some file ->
             let same_report plan =
               (Explorer.run_faults setup (Fault.replay plan)).Explorer.deadlock
               = Some r
             in
             if not
                  (save_and_confirm ~save:Fault.save ~load:Fault.load
                     ~noun:"fault" ~fails:same_report file
                     h.Explorer.shrunk_plan)
             then exit 1);
        exit (if h.Explorer.replay_matches then 0 else 1)
  in
  let run_campaign ~campaign ~seeds ~first_seed ~quick ~watchdog ~backoff =
    let campaign = Option.value campaign ~default:Fault.Mixed in
    match campaign with
    | Fault.Replica ->
        (* the replica campaign runs the cluster, not a macro benchmark:
           its oracle is the cluster's own divergence detector *)
        let summary =
          Fault_study.run_replica_campaign ~seeds ~first_seed ~quick
            ~log:(fun line -> Printf.printf "%s\n%!" line) ()
        in
        Fault_study.print_replica Format.std_formatter summary;
        if summary.Fault_study.r_incorrect > 0 then exit 1
    | _ ->
        let summary =
          Fault_study.run_campaign ~campaign ~seeds ~first_seed ~quick
            ~watchdog_quanta:watchdog ~backoff_quanta:backoff
            ~log:(fun line -> Printf.printf "%s\n%!" line) ()
        in
        Fault_study.print Format.std_formatter summary;
        if summary.Fault_study.failed > 0 then exit 1
  in
  let run campaign seeds first_seed quick watchdog backoff deadlock dump
      replay expect_deadlock shrink_budget =
    match replay with
    | Some file -> run_replay ~file ~quick ~watchdog ~backoff ~expect_deadlock
    | None ->
        require_positive "--seeds" seeds;
        if deadlock then
          run_hunt ~campaign ~seeds ~first_seed ~quick ~watchdog ~backoff
            ~shrink_budget ~dump
        else
          run_campaign ~campaign ~seeds ~first_seed ~quick ~watchdog ~backoff
  in
  Cmd.v
    (cmd_info "faults"
       ~doc:
         "Seeded fault-injection campaigns (processor crashes, lock-holder \
          failures, device timeouts, scavenge-worker deaths) over the macro \
          benchmarks, with watchdog-deadlock hunting and fault-plan replay")
    Term.(
      const run $ campaign $ seeds ~default:8 ~doc:"Number of seeded runs."
      $ first_seed $ quick $ watchdog $ backoff $ deadlock $ dump
      $ replay ~doc:"Replay a saved fault plan instead of sampling."
      $ expect_deadlock
      $ shrink_budget
          ~doc:"Replays allowed for shrinking a deadlock's fault plan.")

(* --- serve --- *)

let serve_cmd =
  let sessions =
    let doc = "Simulated user sessions issuing requests." in
    Arg.(value & opt int 8 & info [ "sessions" ] ~doc)
  in
  let workers =
    let doc = "Smalltalk server Processes in the worker pool." in
    Arg.(value & opt int 4 & info [ "workers" ] ~doc)
  in
  let loop =
    let doc =
      "Arrival generator: $(b,closed) (each session thinks, then issues \
       its next request after the previous completes) or $(b,open) \
       (fixed inter-arrival intervals, completions notwithstanding)."
    in
    Arg.(value
         & opt (enum [ ("closed", Server.Closed); ("open", Server.Open) ])
             Server.Closed
         & info [ "loop" ] ~doc)
  in
  let requests =
    let doc = "Requests per session." in
    Arg.(value & opt int 4 & info [ "requests" ] ~doc)
  in
  let think_ms =
    let doc = "Closed loop: think time between completion and the next \
               request (simulated ms)." in
    Arg.(value & opt int 200 & info [ "think-ms" ] ~doc)
  in
  let interval_ms =
    let doc = "Open loop: inter-arrival interval within a session \
               (simulated ms)." in
    Arg.(value & opt int 200 & info [ "interval-ms" ] ~doc)
  in
  let admit =
    let doc = "Admission control: maximum in-flight requests (0 = \
               unlimited); arrivals over the cap are rejected." in
    Arg.(value & opt int 0 & info [ "admit" ] ~doc)
  in
  let differential =
    let doc =
      "Run the same workload on both engines and fail unless they agree \
       on completions, rejections and per-session counts."
    in
    Arg.(value & flag & info [ "differential" ] ~doc)
  in
  let run_one ~label config p =
    let t0 = Unix.gettimeofday () in
    let vm, stats = catching_faults (fun () -> Server.run config p) in
    let wall = Unix.gettimeofday () -. t0 in
    Printf.printf "--- %s: %d sessions (%s loop), %d workers, %d \
                   processors ---\n"
      label p.Server.sessions
      (match p.Server.loop with Server.Open -> "open" | Server.Closed -> "closed")
      p.Server.workers config.Config.processors;
    Format.printf "%a" (fun fmt -> Server.pp_stats fmt ~cm:config.Config.cost)
      stats;
    Printf.printf "host: %.3f s wall, %.0f engine events/s, %.0f bytecodes/s\n"
      wall
      (float_of_int stats.Server.engine_events /. wall)
      (float_of_int stats.Server.steps /. wall);
    report_sanitizer vm ~trace_dump:0;
    stats
  in
  let run config sessions workers loop requests think_ms interval_ms admit
      differential =
    require_positive "--sessions" sessions;
    require_positive "--workers" workers;
    require_positive "--requests" requests;
    let p =
      { Server.sessions; workers; loop; requests; think_ms; interval_ms;
        admit }
    in
    let config = config ~background:false in
    let stats = run_one ~label:"serve" config p in
    if differential then begin
      let other =
        match config.Config.engine with
        | Config.Engine_scan -> Config.Engine_calendar
        | Config.Engine_calendar -> Config.Engine_scan
      in
      let config' = { config with Config.engine = other } in
      let stats' = run_one ~label:"serve (reference engine)" config' p in
      let agree =
        stats.Server.offered = stats'.Server.offered
        && stats.Server.completed = stats'.Server.completed
        && stats.Server.rejected = stats'.Server.rejected
        && stats.Server.per_session = stats'.Server.per_session
        && stats.Server.quiesced && stats'.Server.quiesced
      in
      if agree then print_endline "differential: engines agree"
      else begin
        print_endline "differential: ENGINES DISAGREE";
        exit 1
      end
    end
    else if not stats.Server.quiesced then exit 1
  in
  Cmd.v
    (cmd_info "serve"
       ~doc:
         "Run the image-server workload (E17): simulated user sessions \
          issue browse/inspect/compile requests against a pool of \
          Smalltalk worker Processes, with per-request latency \
          percentiles")
    Term.(
      const run
      $ vm_config ~default_engine:Config.Engine_calendar ~min_processors:2 ()
      $ sessions $ workers $ loop $ requests $ think_ms $ interval_ms
      $ admit $ differential)

(* --- cluster --- *)

let cluster_cmd =
  let replicas =
    let doc = "Simulated machines in the cluster." in
    Arg.(value & opt int Replica.default_params.Replica.replicas
         & info [ "replicas" ] ~doc)
  in
  let requests =
    let doc = "Command-log entries to generate and serve." in
    Arg.(value & opt int Replica.default_params.Replica.requests
         & info [ "requests" ] ~doc)
  in
  let sessions =
    let doc = "Client sessions issuing the requests (1..16)." in
    Arg.(value & opt int Replica.default_params.Replica.sessions
         & info [ "sessions" ] ~doc)
  in
  let shards =
    let doc = "Application shards the requests are keyed to (1..16)." in
    Arg.(value & opt int Replica.default_params.Replica.shards
         & info [ "shards" ] ~doc)
  in
  let slots =
    let doc =
      "Worker Processes (and virtual processors) per replica: the maximum \
       number of independent log entries dispatched in one wave."
    in
    Arg.(value & opt int Replica.default_params.Replica.slots
         & info [ "slots" ] ~doc)
  in
  let checkpoint_every =
    let doc = "Log entries between checkpoints." in
    Arg.(value & opt int Replica.default_params.Replica.checkpoint_every
         & info [ "checkpoint-every" ] ~doc)
  in
  let log_seed =
    let doc = "Workload seed for the generated command log." in
    Arg.(value & opt int Replica.default_params.Replica.log_seed
         & info [ "log-seed" ] ~doc)
  in
  let crash_seed =
    let doc =
      "Arm the fault injector with this seed: replica crashes are sampled \
       at log-entry boundaries and crashed replicas rejoin from their \
       checkpoints."
    in
    Arg.(value & opt (some int) None & info [ "crash-seed" ] ~docv:"SEED" ~doc)
  in
  let scenario =
    let doc =
      "Aim the injected crash at the recovery path: $(b,torn-checkpoint) \
       (the crash tears the victim's newest checkpoint), \
       $(b,crash-mid-replay) (the victim dies again halfway through \
       replay) or $(b,double-crash) (the second fault targets the same \
       replica again)."
    in
    Arg.(value
         & opt (some (enum
             [ ("torn-checkpoint", Replica.Torn_checkpoint);
               ("crash-mid-replay", Replica.Crash_mid_replay);
               ("double-crash", Replica.Double_crash) ])) None
         & info [ "scenario" ] ~doc)
  in
  let skip_lsn =
    let doc =
      "Deliberately-divergent configuration: replica 0 silently drops log \
       entry $(docv).  The divergence detector must catch it (pair with \
       $(b,--expect-divergence))."
    in
    Arg.(value & opt (some int) None & info [ "skip-lsn" ] ~docv:"LSN" ~doc)
  in
  let dir =
    let doc = "Checkpoint and log directory (a temp directory when absent)." in
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let expect_rejoin =
    let doc =
      "Succeed only when at least one replica crashed and rejoined — for \
       smoke tests that must prove the recovery path ran."
    in
    Arg.(value & flag & info [ "expect-rejoin" ] ~doc)
  in
  let expect_divergence =
    let doc =
      "Succeed only when the divergence detector fired — for the \
       deliberately-divergent configuration."
    in
    Arg.(value & flag & info [ "expect-divergence" ] ~doc)
  in
  let run replicas requests sessions shards slots checkpoint_every log_seed
      crash_seed scenario skip_lsn dir expect_rejoin expect_divergence =
    let p =
      { Replica.replicas; requests; sessions; shards; slots; checkpoint_every;
        log_seed; crash_seed; scenario; skip_lsn; dir }
    in
    let o =
      catching_faults (fun () ->
          Replica.run ~log:(fun line -> Printf.printf "%s\n%!" line) p)
    in
    Format.printf "%a" Replica.pp o;
    if o.Replica.fault_plan <> [] then begin
      Printf.printf "fault plan:\n";
      List.iter
        (fun line -> Printf.printf "  %s\n" line)
        (String.split_on_char '\n'
           (String.trim (Format.asprintf "%a" Fault.pp o.Replica.fault_plan)))
    end;
    let failed = ref false in
    let fail fmt =
      Printf.ksprintf (fun m -> Printf.printf "FAIL: %s\n" m; failed := true)
        fmt
    in
    if expect_divergence then begin
      if o.Replica.divergences = [] then
        fail "expected the divergence detector to fire; it did not"
    end
    else begin
      if o.Replica.divergences <> [] then fail "replicas diverged";
      if not o.Replica.converged then
        fail "cluster did not converge to the reference fingerprint"
    end;
    if expect_rejoin && o.Replica.rejoins = 0 then
      fail "expected a crash and rejoin; none happened (try another \
            --crash-seed)";
    exit (if !failed then 1 else 0)
  in
  Cmd.v
    (cmd_info "cluster"
       ~doc:
         "Run the replicated image cluster (E19): R simulated machines \
          execute a durable command log in dependency-aware waves, with \
          checkpoints, injected replica crashes, crash-rejoin by \
          restore-and-replay, and a divergence detector against a \
          non-replicated reference")
    Term.(
      const run $ replicas $ requests $ sessions $ shards $ slots
      $ checkpoint_every $ log_seed $ crash_seed $ scenario $ skip_lsn $ dir
      $ expect_rejoin $ expect_divergence)

(* --- disasm / decompile / browse --- *)

let find_method vm cls_name sel_name =
  match Universe.find_class vm.Vm.u cls_name with
  | None -> Error (Printf.sprintf "unknown class %s" cls_name)
  | Some cls ->
      let sel = Universe.intern vm.Vm.u sel_name in
      let dict = Heap.get vm.Vm.heap cls Layout.Class.method_dict in
      (match Class_builder.dict_find vm.Vm.u dict sel with
       | Some m -> Ok m
       | None -> Error (Printf.sprintf "%s does not define #%s" cls_name sel_name))

let method_cmd name doc render =
  let cls = Arg.(required & pos 0 (some string) None & info [] ~docv:"CLASS") in
  let sel = Arg.(required & pos 1 (some string) None & info [] ~docv:"SELECTOR") in
  let run cls_name sel_name =
    let vm = Vm.create (Config.baseline_bs ()) in
    match find_method vm cls_name sel_name with
    | Ok m -> print_string (render vm m)
    | Error e -> refuse "%s" e
  in
  Cmd.v (cmd_info name ~doc) Term.(const run $ cls $ sel)

let disasm_cmd =
  method_cmd "disasm" "Disassemble a method"
    (fun vm m -> Method_mirror.disassemble vm.Vm.u m)

let decompile_cmd =
  method_cmd "decompile" "Decompile a method back to source"
    (fun vm m -> Method_mirror.decompile vm.Vm.u m)

let browse_cmd =
  let cls = Arg.(required & pos 0 (some string) None & info [] ~docv:"CLASS") in
  let run cls_name =
    let vm = Vm.create (Config.baseline_bs ()) in
    match Universe.find_class vm.Vm.u cls_name with
    | None -> refuse "unknown class %s" cls_name
    | Some _ ->
        let s expr = Heap.string_value vm.Vm.heap (Vm.eval vm expr) in
        print_endline (s (cls_name ^ " definitionString"));
        print_endline "";
        print_endline "hierarchy:";
        print_string (s (cls_name ^ " hierarchyString"));
        print_endline "";
        print_endline "selectors:";
        print_endline (s ("(" ^ cls_name ^ " selectors collect: [:e | e asString]) printString"))
  in
  Cmd.v (cmd_info "browse" ~doc:"Show a class definition and its protocol")
    Term.(const run $ cls)

(* --- main --- *)

let main_cmd =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  Cmd.group ~default
    (cmd_info "mst" ~version:"1.0"
       ~doc:"Multiprocessor Smalltalk on a simulated Firefly")
    [ eval_cmd; run_cmd; explore_cmd; faults_cmd; disasm_cmd; decompile_cmd;
      browse_cmd; serve_cmd; cluster_cmd ]

(* A command line Cmdliner cannot parse is refused like any other
   argument: exit 2, not Cmdliner's 124. *)
let () =
  exit
    (match Cmd.eval_value main_cmd with
     | Ok (`Ok () | `Help | `Version) -> 0
     | Error (`Parse | `Term) -> 2
     | Error `Exn -> Cmd.Exit.internal_error)
