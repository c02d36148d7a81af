(* The benchmark harness: regenerates every table and figure of
   Pallas & Ungar, "Multiprocessor Smalltalk" (PLDI 1988), plus the
   ablations and extensions indexed in DESIGN.md.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe -- table2    -- one section
     dune exec bench/main.exe -- --quick   -- reduced repetitions
                                              (writes no BENCH_*.json)

   Absolute numbers are simulated seconds on the simulated Firefly
   (1 MIPS); the workloads are sized so the baseline column lands near the
   paper's.  The shape -- who wins, by roughly what factor -- is the
   reproduction target. *)

let fmt = Format.std_formatter

let section title =
  Format.fprintf fmt "@.=== %s ===@.@." title

(* --sanitize=off|report|strict and --trace-dump=N apply to the sections
   that build full VMs (table2/figure2 and instrumentation) *)
let sanitize_mode = ref Sanitizer.Off
let trace_dump = ref 0

let tweak c = { c with Config.sanitize = !sanitize_mode }

(* --- E1/E2/E5: static content --- *)

let run_figure1 () =
  section "Figure 1: system structure";
  Format.fprintf fmt "%s@." Report.figure1

let run_table1 () =
  section "Table 1: process and interpreter relationships";
  Format.fprintf fmt "%s@." Report.table1

let run_table3 () =
  section "Table 3: applications of the three strategies";
  Format.fprintf fmt "%s@." Report.table3

(* --- E3/E4: Table 2 and Figure 2 --- *)

let scale_reps factor benchmarks =
  List.map
    (fun (b : Macro.benchmark) ->
      { b with Macro.reps = max 1 (b.Macro.reps / factor) })
    benchmarks

let run_table2 ~quick () =
  section "Table 2 / Figure 2: macro benchmarks in the four system states";
  let benchmarks =
    if quick then scale_reps 6 Macro.benchmarks else Macro.benchmarks
  in
  if quick then
    Format.fprintf fmt
      "(quick mode: repetitions reduced 6x; absolute seconds scale down \
       accordingly)@.@.";
  let results = Macro.run_table2 ~config_tweak:tweak ~benchmarks () in
  Report.print_table2 fmt results;
  Format.fprintf fmt "@.";
  Report.print_figure2 fmt results;
  Report.print_summary fmt results;
  (match !sanitize_mode with
   | Sanitizer.Off -> ()
   | Sanitizer.Report ->
       Format.fprintf fmt
         "@.(sanitizer in report mode; see the instrumentation section for \
          accumulated violations)@."
   | Sanitizer.Strict ->
       Format.fprintf fmt
         "@.(sanitizer strict: all four system states completed with zero \
          serialization violations)@.")

(* --- E6/E7/E9/E11: ablations --- *)

let run_ablation_contexts ~quick () =
  section "Ablation E6: the free-context list (paper: 160% -> 65% worst case)";
  let reps = if quick then 6 else 14 in
  Ablations.print_result fmt (Ablations.free_contexts ~reps ());
  Ablations.print_result fmt (Ablations.no_free_contexts ~reps ())

let run_ablation_cache ~quick () =
  section
    "Ablation E7: the method cache (paper: locked shared cache was 'much too slow')";
  let reps = if quick then 4 else 12 in
  Ablations.print_result fmt (Ablations.method_cache ~reps ())

let run_ablation_eden ~quick () =
  section
    "Ablation E9: replicating the new-object space (the paper's proposed improvement)";
  let reps = if quick then 4 else 12 in
  List.iter (Ablations.print_result fmt) (Ablations.replicated_eden ~reps ())

let run_ablation_sched ~quick () =
  section "Ablation E11: the scheduler reorganization";
  let reps = if quick then 4 else 12 in
  Ablations.print_result fmt (Ablations.scheduler_reorganization ~reps ())

(* --- the BENCH_*.json files --- *)

(* A JSON value whose numbers carry their printf format, so a committed
   file's digits stay fixed: [Float (d, x)] prints [x] with [d]
   decimals. *)
type json =
  | Int of int
  | Float of int * float
  | Str of string
  | Bool of bool
  | Obj of (string * json) list
  | Rows of json list  (* a top-level array, one element per line *)

let rec json_string = function
  | Int n -> string_of_int n
  | Float (decimals, x) -> Printf.sprintf "%.*f" decimals x
  | Str s -> Printf.sprintf "%S" s
  | Bool b -> string_of_bool b
  | Obj fields ->
      let field (k, v) = Printf.sprintf "%S: %s" k (json_string v) in
      "{" ^ String.concat ", " (List.map field fields) ^ "}"
  | Rows rows ->
      let row r = "    " ^ json_string r in
      "[\n" ^ String.concat ",\n" (List.map row rows) ^ "\n  ]"

(* Write a section's results to [file], one top-level field per line.  A
   --quick run's numbers are not the published ones: it writes nothing,
   so it cannot overwrite the committed file. *)
let write_json ~quick file fields =
  if quick then Format.fprintf fmt "@.(quick run: %s not written)@." file
  else begin
    let field (k, v) = Printf.sprintf "  %S: %s" k (json_string v) in
    Out_channel.with_open_text file (fun oc ->
        Printf.fprintf oc "{\n%s\n}\n"
          (String.concat ",\n" (List.map field fields)));
    Format.fprintf fmt "@.(rows written to %s)@." file
  end

(* --- E16: work stealing --- *)

let run_e16_steal ~quick () =
  section "E16: work-stealing scheduler, processor sweep";
  let workers = if quick then 24 else 64 in
  let vps = if quick then [ 5; 8; 16 ] else [ 5; 8; 16; 32; 64 ] in
  let rows = Ablations.work_stealing_sweep ~workers ~vps () in
  Ablations.print_steal_rows fmt ~workers rows;
  let row (r : Ablations.steal_row) =
    Obj
      [ ("vps", Int r.vps); ("locked_seconds", Float (6, r.locked_seconds));
        ("locked_sched_spin", Int r.locked_sched_spin);
        ("stealing_seconds", Float (6, r.stealing_seconds));
        ("deque_spin", Int r.deque_spin); ("steals", Int r.steals);
        ("migrations", Int r.migrations);
        ("speedup", Float (3, r.locked_seconds /. r.stealing_seconds)) ]
  in
  write_json ~quick "BENCH_e16_steal.json"
    [ ("experiment", Str "e16_work_stealing");
      ("workers", Int workers);
      ("rows", Rows (List.map row rows)) ]

(* --- E17: the image server on the event-calendar engine --- *)

let run_server_once config p =
  let _vm, stats = Server.run config p in
  if not stats.Server.quiesced then
    failwith "e17-server: run did not quiesce";
  stats

let server_json_row (sessions, (sc : Server.stats), (ca : Server.stats)) =
  let engine (s : Server.stats) extra =
    let per_sec n t = if t > 0. then float_of_int n /. t else 0. in
    Obj
      ([ ("engine_events", Int s.engine_events);
         ("sim_requests_per_sec",
          Float (3, per_sec s.completed s.sim_seconds));
         ("latency_p50_cycles", Int s.latency.p50);
         ("latency_p99_cycles", Int s.latency.p99) ]
       @ extra)
  in
  Obj
    [ ("sessions", Int sessions); ("completed", Int sc.completed);
      ("scan", engine sc []);
      ("calendar", engine ca [ ("parks", Int ca.parks) ]) ]

let run_e17_server ~quick () =
  section
    "E17: image server (browse/inspect/compile sessions), scan vs calendar \
     engine";
  let vps = if quick then 16 else 64 in
  let workers = if quick then 4 else 8 in
  let requests = if quick then 2 else 4 in
  let think_ms = 10000 in
  let session_counts = if quick then [ 4; 8 ] else [ 8; 16; 32; 64 ] in
  Format.fprintf fmt
    "%d processors, %d workers, %d requests/session, closed loop, think %d \
     ms (mostly idle)@.@."
    vps workers requests think_ms;
  Format.fprintf fmt "  %8s %10s | %11s %12s | %11s %12s %7s@."
    "sessions" "completed" "scan events" "scan p50(c)" "cal events"
    "cal p50(c)" "parks";
  let rows =
    List.map
      (fun sessions ->
        let p =
          { Server.default_params with
            Server.sessions; workers; requests; think_ms;
            loop = Server.Closed }
        in
        let base = { (Config.ms ~processors:vps ()) with
                     Config.sanitize = !sanitize_mode } in
        let scan = run_server_once base p in
        let calendar =
          run_server_once
            { base with Config.engine = Config.Engine_calendar } p
        in
        Format.fprintf fmt "  %8d %10d | %11d %12d | %11d %12d %7d@."
          sessions scan.Server.completed scan.Server.engine_events
          scan.Server.latency.p50 calendar.Server.engine_events
          calendar.Server.latency.p50 calendar.Server.parks;
        (sessions, scan, calendar))
      session_counts
  in
  write_json ~quick "BENCH_e17_server.json"
    [ ("experiment", Str "e17_image_server");
      ("vps", Int vps);
      ("workers", Int workers);
      ("requests_per_session", Int requests);
      ("think_ms", Int think_ms);
      ("rows", Rows (List.map server_json_row rows)) ]

(* --- E18: incremental old-space collection --- *)

let run_e18_gc ~quick () =
  section
    "E18: incremental old-space mark-sweep — pause distribution under \
     aggressive churn";
  let iterations = if quick then 10_000 else 30_000 in
  let rows, s = Gc_study.pause_study ~iterations () in
  Gc_study.print_pause_rows fmt
    ~label:
      "churn with tenure age 1 and a 16 KB eden (most allocation tenures, \
       then dies in old space)"
    rows;
  Format.fprintf fmt
    "@.  collector: %d cycle(s) in %d slice(s), %d forced completion(s)@."
    s.Instrumentation.major_cycles s.major_slices s.major_forced_completions;
  Format.fprintf fmt
    "  reclaimed %d object(s) / %d words; free lists served %d \
     allocation(s) (%d words reused)@."
    s.major_reclaimed_objects s.major_reclaimed_words s.major_free_list_hits
    s.major_free_reused_words;
  (* the collector's whole claim is the bounded tail — fail the harness
     if a slice's p95 escapes the budget *)
  (match rows with
   | [ _; slice_row ]
     when slice_row.Gc_study.pauses > 0
          && slice_row.Gc_study.p95_ms > slice_row.Gc_study.budget_ms ->
       Format.fprintf fmt
         "@.FAIL: p95 major slice %.3f ms exceeds the %.3f ms budget@."
         slice_row.Gc_study.p95_ms slice_row.Gc_study.budget_ms;
       exit 1
   | _ -> ());
  let pause (r : Gc_study.pause_row) =
    Obj
      [ ("population", Str r.pause_label); ("count", Int r.pauses);
        ("p50_ms", Float (6, r.p50_ms)); ("p95_ms", Float (6, r.p95_ms));
        ("max_ms", Float (6, r.max_ms)); ("budget_ms", Float (6, r.budget_ms));
        ("budget_overruns", Int r.budget_overruns) ]
  in
  write_json ~quick "BENCH_e18_gc.json"
    [ ("experiment", Str "e18_incremental_major");
      ("iterations", Int iterations); ("pauses", Rows (List.map pause rows));
      ("collector",
       Obj
         [ ("cycles", Int s.major_cycles); ("slices", Int s.major_slices);
           ("budget_cycles", Int s.major_budget);
           ("overruns", Int s.major_overruns);
           ("forced_completions", Int s.major_forced_completions);
           ("reclaimed_objects", Int s.major_reclaimed_objects);
           ("reclaimed_words", Int s.major_reclaimed_words);
           ("free_list_hits", Int s.major_free_list_hits);
           ("free_reused_words", Int s.major_free_reused_words);
           ("barrier_greys", Int s.major_barrier_greys) ]) ]

(* --- E19: replicated image cluster --- *)

let run_e19_cluster ~quick () =
  section
    "E19: replicated image cluster — availability under injected replica \
     crashes";
  let requests = if quick then 24 else 48 in
  let base = { Replica.default_params with Replica.requests } in
  let runs =
    [ ("fault-free", base);
      ("single-crash", { base with Replica.crash_seed = Some 5 });
      ("torn-checkpoint",
       { base with Replica.crash_seed = Some 5;
         Replica.scenario = Some Replica.Torn_checkpoint });
      ("double-crash",
       { base with Replica.crash_seed = Some 5;
         Replica.scenario = Some Replica.Double_crash }) ]
  in
  let rows = List.map (fun (label, p) -> (label, Replica.run p)) runs in
  Format.fprintf fmt
    "  %-16s %7s %7s %9s %6s %5s %s@." "run" "crashes" "rejoins" "fallbacks"
    "avail" "lag" "verdict";
  List.iter
    (fun (label, (o : Replica.outcome)) ->
      Format.fprintf fmt "  %-16s %7d %7d %9d %6d %5d %s@." label
        o.Replica.crashes o.Replica.rejoins o.Replica.fallbacks
        o.Replica.availability_permil o.Replica.max_rejoin_lag
        (if o.Replica.converged && o.Replica.divergences = [] then
           "converged"
         else "DIVERGED"))
    rows;
  (* the cluster's whole claim is that a rejoined replica reproduces the
     reference fingerprint — fail the harness on any divergence *)
  List.iter
    (fun (label, (o : Replica.outcome)) ->
      if (not o.Replica.converged) || o.Replica.divergences <> [] then begin
        Format.fprintf fmt
          "@.FAIL: %s run did not converge to the reference fingerprint@."
          label;
        List.iter
          (fun d -> Format.fprintf fmt "  %s@." d)
          o.Replica.divergences;
        exit 1
      end)
    rows;
  (* the crash rows must actually exercise the recovery path *)
  (match List.assoc_opt "single-crash" rows with
   | Some o when o.Replica.rejoins = 0 ->
       Format.fprintf fmt "@.FAIL: the single-crash run never rejoined@.";
       exit 1
   | _ -> ());
  let row (label, (o : Replica.outcome)) =
    Obj
      [ ("run", Str label); ("entries", Int o.entries); ("waves", Int o.waves);
        ("crashes", Int o.crashes); ("rejoins", Int o.rejoins);
        ("fallbacks", Int o.fallbacks);
        ("availability_permil", Int o.availability_permil);
        ("missed_entries", Int o.missed);
        ("max_rejoin_lag", Int o.max_rejoin_lag);
        ("divergences", Int (List.length o.divergences));
        ("converged", Bool o.converged) ]
  in
  write_json ~quick "BENCH_e19_cluster.json"
    [ ("experiment", Str "e19_replicated_cluster");
      ("replicas", Int Replica.default_params.Replica.replicas);
      ("requests", Int requests); ("rows", Rows (List.map row rows)) ]

(* --- E8/E10: scavenge economics --- *)

let run_scavenge ~quick () =
  section "E8: scavenge economics (section 3.1)";
  let iterations = if quick then 8_000 else 30_000 in
  Gc_study.print_rows fmt
    ~label:
      "Eden size sweep (one allocator): interval grows with s, share stays small"
    (Gc_study.eden_sweep ~iterations ());
  Format.fprintf fmt "@.";
  Gc_study.print_rows fmt
    ~label:"k allocators with eden k*s: the scavenge interval holds"
    (Gc_study.scaling_sweep ~iterations ())

let run_parallel_scavenge ~quick () =
  section
    "E10: applying multiple processors to the scavenge (future work in the paper)";
  let iterations = if quick then 8_000 else 30_000 in
  (match !sanitize_mode with
   | Sanitizer.Off -> ()
   | Sanitizer.Report | Sanitizer.Strict ->
       Format.fprintf fmt
         "(sanitizer on: claim/chunk invariants and a full heap check run \
          after every parallel collection)@.@.");
  Gc_study.print_rows fmt
    ~label:"4 busy allocators, eden 80 KB, k scavenge workers"
    (Gc_study.parallel_scavenge_sweep ~sanitize:!sanitize_mode ~iterations ())

(* --- instrumentation: the paper's section-6 plan, realized --- *)

let run_instrumentation ~quick () =
  section
    "Instrumentation (paper section 6): resource contention under MS + 4 busy";
  let vm = Macro.prepare_vm ~config_tweak:tweak Macro.Ms_busy in
  let b =
    { (List.find (fun (b : Macro.benchmark) -> b.Macro.key = "organization")
         Macro.benchmarks)
      with Macro.reps = (if quick then 4 else 12) }
  in
  ignore (Macro.run_on vm b);
  Instrumentation.print fmt (Instrumentation.gather vm);
  if !trace_dump > 0 then
    Trace.dump fmt (Sanitizer.trace (Vm.sanitizer vm)) ~n:!trace_dump

(* --- E12: micro benchmarks --- *)

let run_micro () =
  section "E12: micro benchmarks";
  (* simulated cycle costs per operation, measured from a calibration run *)
  let vm = Vm.create (Config.ms ~processors:1 ()) in
  let measure label src =
    let st = vm.Vm.states.(0) in
    let steps0 = st.State.steps in
    let c0 = Vm.cycles vm in
    ignore (Vm.eval vm src);
    let steps = st.State.steps - steps0 in
    let cycles = Vm.cycles vm - c0 in
    Format.fprintf fmt "  %-44s %8.1f cycles/bytecode (%d bytecodes)@." label
      (float_of_int cycles /. float_of_int (max 1 steps))
      steps
  in
  Format.fprintf fmt "Simulated costs (MS uniprocessor):@.";
  measure "jump loop (bounded whileTrue)"
    "| i | i := 0. [i < 20000] whileTrue: [i := i + 1]";
  measure "send-heavy (printString loop)" "1 to: 800 do: [:i | i printString]";
  measure "allocation-heavy (Array new: 8 loop)"
    "1 to: 4000 do: [:i | Array new: 8]"

(* --- driver --- *)

let all_sections ~quick =
  [ ("figure1", fun () -> run_figure1 ());
    ("table1", fun () -> run_table1 ());
    ("table3", fun () -> run_table3 ());
    ("table2", fun () -> run_table2 ~quick ());
    ("figure2", fun () -> run_table2 ~quick ());
    ("ablation-contexts", fun () -> run_ablation_contexts ~quick ());
    ("ablation-cache", fun () -> run_ablation_cache ~quick ());
    ("ablation-eden", fun () -> run_ablation_eden ~quick ());
    ("ablation-sched", fun () -> run_ablation_sched ~quick ());
    ("e16-steal", fun () -> run_e16_steal ~quick ());
    ("e17-server", fun () -> run_e17_server ~quick ());
    ("e18-gc", fun () -> run_e18_gc ~quick ());
    ("e19-cluster", fun () -> run_e19_cluster ~quick ());
    ("scavenge", fun () -> run_scavenge ~quick ());
    ("instrumentation", fun () -> run_instrumentation ~quick ());
    ("parallel-scavenge", fun () -> run_parallel_scavenge ~quick ());
    ("micro", fun () -> run_micro ()) ]

(* A malformed command line is a usage error: say why and exit 2 before
   running anything, so a typo never passes for a full-size run. *)
let usage_error fmt_str =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "bench: %s@." msg;
      exit 2)
    fmt_str

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = ref false in
  let wanted = ref [] in
  List.iter
    (fun a ->
      let flag, value =
        match String.index_opt a '=' with
        | Some i ->
            (String.sub a 0 i,
             Some (String.sub a (i + 1) (String.length a - i - 1)))
        | None -> (a, None)
      in
      match (flag, value) with
      | "--quick", None -> quick := true
      | "--sanitize", Some v ->
          sanitize_mode :=
            (match List.assoc_opt v Sanitizer.modes with
             | Some m -> m
             | None ->
                 usage_error "unknown sanitize mode %s (%s)" v
                   (String.concat ", " (List.map fst Sanitizer.modes)))
      | "--trace-dump", Some v ->
          trace_dump :=
            (match int_of_string_opt v with
             | Some n when n >= 0 -> n
             | _ ->
                 usage_error "--trace-dump takes a count of events, not %S" v)
      | _ when String.length a >= 2 && String.sub a 0 2 = "--" ->
          usage_error
            "unknown option %s (--quick, --sanitize=MODE, --trace-dump=N)" a
      | _ -> wanted := a :: !wanted)
    args;
  let sections = all_sections ~quick:!quick in
  let wanted = List.rev !wanted in
  List.iter
    (fun name ->
      if not (List.mem_assoc name sections) then
        usage_error "unknown section %s; available: %s" name
          (String.concat ", " (List.map fst sections)))
    wanted;
  Format.fprintf fmt
    "Multiprocessor Smalltalk (Pallas & Ungar, PLDI 1988) - reproduction harness@.";
  Format.fprintf fmt
    "Simulated Firefly: 5 processors at 1 MIPS, 80 KB eden, Generation Scavenging@.";
  match wanted with
  | [] ->
      List.iter (fun (name, f) -> if name <> "figure2" then f ()) sections
  | names -> List.iter (fun name -> (List.assoc name sections) ()) names
