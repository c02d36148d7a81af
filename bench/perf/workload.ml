(* The five workloads.  Each is a closed loop of identical passes: the
   benchmark builds a pass's inputs from the seed, runs the pass through
   the public API only, checks its outputs with the workload's oracle,
   and hands back the simulated results, the host wall time of the
   measured region and the simulated per-layer counters.  Every call
   into a layer goes through [Span.record], so a traced run can attribute
   host time to layers. *)

open Perfkit

type size = Full | Smoke

type pass = {
  host_s : float;  (** host wall time of the measured region *)
  ops : int;  (** outcomes the oracle checked *)
  failures : (int * string) list;  (** failed outcomes, with the reason *)
  sim : (string * float) list;  (** simulated end-to-end results *)
  digest_text : string;  (** every simulated number the pass produced *)
  bytecodes : int;  (** in the measured region; 0 where not visible *)
  layer : (string * float) list;  (** simulated per-layer counters *)
  engine : (string * [ `Scan | `Calendar ] * int) option;
      (** the span that runs the engine, which engine, and its events *)
  probe_vm : unit -> Vm.t;  (** state for the census and snapshot probes *)
}

type t = {
  name : string;
  why : string;
  seed_mapping : string;
  setup : size -> seed:int -> unit;  (** one set-up, timed for [setup_s] *)
  run_pass : size -> seed:int -> dir:string -> pass;
}

let layer = Span.record

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* A deterministic generator per seed; seed 0 maps to the published
   inputs in every workload. *)
let rng ~seed salt = Random.State.make [| seed; salt |]

let ms_of_cycles cm c = 1000. *. Cost_model.seconds cm c

let total_steps vm =
  Array.fold_left (fun acc st -> acc + st.State.steps) 0 vm.Vm.states

(* --- simulated per-layer counters, summed over a pass's VMs --- *)

let sum_counters rows =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun row ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)))
        row)
    rows;
  tbl

let vm_counters vm =
  let r = Instrumentation.gather vm in
  let sum f = float_of_int (List.fold_left (fun a row -> a + f row) 0 r.Instrumentation.interps) in
  let open Instrumentation in
  let major =
    match r.major with
    | None -> []
    | Some m ->
        [ ("objmem.major.cycles", float_of_int m.major_cycles);
          ("objmem.major.slices", float_of_int m.major_slices);
          ("objmem.major.slice_cycles", float_of_int m.major_slice_cycles);
          ("objmem.major.overruns", float_of_int m.major_overruns);
          ("objmem.major.reclaimed_words", float_of_int m.major_reclaimed_words);
          ("objmem.major.free_list_hits", float_of_int m.major_free_list_hits);
          ("objmem.major.barrier_greys", float_of_int m.major_barrier_greys) ]
  in
  let locks =
    List.concat_map
      (fun l ->
        let k = "vkernel.lock." ^ Catalog.lock_key l.lock_name in
        [ (k ^ ".acquisitions", float_of_int l.acquisitions);
          (k ^ ".contended", float_of_int l.contended);
          (k ^ ".spin_cycles", float_of_int l.spin_cycles) ])
      r.locks
  in
  [ ("interp.bytecodes", sum (fun i -> i.steps));
    ("interp.sends", sum (fun i -> i.sends));
    ("interp.cache_hits", sum (fun i -> i.cache_hits));
    ("interp.cache_probes", sum (fun i -> i.cache_hits + i.cache_misses));
    ("interp.ctx_reuses", sum (fun i -> i.ctx_reuses));
    ("interp.ctx_allocs", sum (fun i -> i.ctx_reuses + i.ctx_fresh));
    ("interp.process_switches", sum (fun i -> i.switches));
    ("interp.gc_wait_cycles", sum (fun i -> i.gc_wait));
    ("objmem.words_allocated", float_of_int r.words_allocated);
    ("objmem.words_copied", float_of_int r.words_copied);
    ("objmem.words_tenured", float_of_int r.words_tenured);
    ("objmem.remembered", float_of_int r.remembered);
    ("objmem.scavenges", float_of_int r.scavenges);
    ("objmem.scavenge_cycles", float_of_int r.scavenge_cycles);
    ("core.engine_events", float_of_int vm.Vm.engine_events);
    ("core.parks", float_of_int vm.Vm.parks) ]
  @ major @ locks

(* Sums become the catalogue's counters and ratios. *)
let layer_counters vms =
  let tbl = sum_counters (List.map vm_counters vms) in
  let get k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
  let ratio a b = if get b = 0. then 0. else get a /. get b in
  let pauses =
    List.concat_map (fun vm -> vm.Vm.scavenge_pause_costs) vms
    |> List.map float_of_int
  in
  let cm = (List.hd vms).Vm.config.Config.cost in
  let p99_ms costs =
    match Stats.percentile costs 99. with
    | Some c -> ms_of_cycles cm (int_of_float c)
    | None -> 0.
  in
  let slices =
    List.concat_map
      (fun vm ->
        match vm.Vm.major with Some mj -> Major.slice_costs mj | None -> [])
      vms
    |> List.map float_of_int
  in
  let derived =
    [ ("interp.cache_hit_ratio", ratio "interp.cache_hits" "interp.cache_probes");
      ("interp.ctx_reuse_ratio", ratio "interp.ctx_reuses" "interp.ctx_allocs");
      ("objmem.scavenge_pause_p99_ms", p99_ms pauses);
      ("objmem.major.slice_p99_ms", p99_ms slices) ]
    @ List.map
        (fun l ->
          let k = "vkernel.lock." ^ Catalog.lock_key l in
          (k ^ ".contended_ratio", ratio (k ^ ".contended") (k ^ ".acquisitions")))
        Catalog.lock_names
  in
  List.filter_map
    (fun (name, _, _) ->
      match List.assoc_opt name derived with
      | Some v -> Some (name, v)
      | None -> Option.map (fun v -> (name, v)) (Hashtbl.find_opt tbl name))
    Catalog.per_layer

let failed_pass ~ops what = List.init (max 1 ops) (fun i -> (i, what))

let counters_text layer =
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) layer)

(* ============ table2: the paper's Table 2 ============ *)

(* One pass runs the eight macro benchmarks in the four system states at
   one sixth of their repetition counts — exactly `bench table2 --quick`,
   so seed 0 reproduces that table's simulated numbers.  A full-size
   Table 2 takes about ten host seconds; a sixth keeps several timed
   passes inside one run. *)
let table2_benchmarks = function
  | Full ->
      List.map
        (fun (b : Macro.benchmark) -> { b with Macro.reps = max 1 (b.Macro.reps / 6) })
        Macro.benchmarks
  | Smoke ->
      List.filter_map
        (fun (b : Macro.benchmark) ->
          if b.Macro.key = "inspector" || b.Macro.key = "definition" then
            Some { b with Macro.reps = 1 }
          else None)
        Macro.benchmarks

(* The 32 (state, benchmark) cells in run order: the paper's order for
   seed 0, a seeded permutation otherwise.  Each state keeps one VM, so
   the order changes what state each benchmark inherits. *)
let table2_order ~seed nb =
  let cells =
    Array.of_list
      (List.concat_map
         (fun s -> List.init nb (fun b -> (s, b)))
         (List.init (List.length Macro.all_states) Fun.id))
  in
  if seed <> 0 then begin
    let r = rng ~seed 2 in
    for i = Array.length cells - 1 downto 1 do
      let j = Random.State.int r (i + 1) in
      let t = cells.(i) in
      cells.(i) <- cells.(j);
      cells.(j) <- t
    done
  end;
  Array.to_list cells

let table2_setup _size ~seed:_ =
  List.iter (fun st -> ignore (Macro.prepare_vm st)) Macro.all_states

let table2_pass size ~seed ~dir:_ =
  let benches = Array.of_list (table2_benchmarks size) in
  let states = Array.of_list Macro.all_states in
  let vms =
    Array.map
      (fun st -> layer ~layer:"image" "Macro.prepare_vm" (fun () -> Macro.prepare_vm st))
      states
  in
  let steps0 = Array.fold_left (fun a vm -> a + total_steps vm) 0 vms in
  let cells = Hashtbl.create 32 in
  let (), host_s =
    timed (fun () ->
        List.iter
          (fun (s, b) ->
            let cell =
              layer ~layer:"core" "Macro.run_on" (fun () ->
                  Macro.run_on vms.(s) benches.(b))
            in
            Hashtbl.replace cells (s, b) cell)
          (table2_order ~seed (Array.length benches)))
  in
  let bytecodes = Array.fold_left (fun a vm -> a + total_steps vm) 0 vms - steps0 in
  let vm_list = Array.to_list vms in
  let layer_values = layer_counters vm_list in
  (* oracle: every benchmark computes the same value in all four states *)
  let results =
    Array.map
      (fun (b : Macro.benchmark) ->
        Array.map
          (fun vm ->
            layer ~layer:"core" "Vm.eval_to_string" (fun () ->
                Vm.eval_to_string vm
                  ("| bench |\nbench := MacroBenchmarks new.\nbench setUp.\n"
                 ^ b.Macro.body)))
          vms)
      benches
  in
  let failures =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun i vals ->
              if Array.for_all (( = ) vals.(0)) vals then None
              else
                Some
                  ( i,
                    Printf.sprintf "%s answers %s across the four states"
                      benches.(i).Macro.key
                      (String.concat " / " (Array.to_list vals)) ))
            results))
  in
  let secs s b = (Hashtbl.find cells (s, b)).Macro.seconds in
  let nb = Array.length benches in
  let overhead s b = 100. *. ((secs s b /. secs 0 b) -. 1.) in
  let paper_overhead (bench : Macro.benchmark) s =
    100. *. ((bench.Macro.paper.(s) /. bench.Macro.paper.(0)) -. 1.)
  in
  let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
  let busy = Array.length states - 1 in
  let errors =
    List.concat_map
      (fun b ->
        List.map
          (fun s -> Float.abs (overhead s b -. paper_overhead benches.(b) s))
          [ 1; 2; 3 ])
      (List.init nb Fun.id)
  in
  let in_order f =
    List.concat_map (fun s -> List.init nb (f s)) (List.init (Array.length states) Fun.id)
  in
  let sim_seconds = List.fold_left ( +. ) 0. (in_order secs) in
  let digest_text =
    String.concat ";"
      (in_order (fun s b ->
           let c = Hashtbl.find cells (s, b) in
           Printf.sprintf "%d.%d:%d/%d=%s" s b c.Macro.cycles c.Macro.scavenges
             results.(b).(s)))
    ^ ";" ^ counters_text layer_values
  in
  { host_s;
    ops = nb;
    failures;
    sim =
      [ ("sim_seconds", sim_seconds);
        ("overhead_busy_mean_pct", mean (List.init nb (fun b -> overhead busy b)));
        ("paper_error_pp", mean errors) ];
    digest_text;
    bytecodes;
    layer = layer_values;
    engine =
      Some ("Macro.run_on", `Scan, int_of_float (List.assoc "core.engine_events" layer_values));
    probe_vm = (fun () -> vms.(busy)) }

(* ============ serve: the E17 image server ============ *)

(* 64 simulated sessions issue 16 requests each over a closed loop; 1024
   requests put at least ten samples beyond the latency p99.  The seed
   jitters the think time within 2% of E17's 10 s. *)
let serve_params size ~seed =
  let think_ms =
    if seed = 0 then 10_000 else 10_000 + Random.State.int (rng ~seed 3) 401 - 200
  in
  let p =
    match size with
    | Full ->
        { Server.default_params with
          Server.sessions = 64; workers = 8; requests = 16; think_ms;
          loop = Server.Closed }
    | Smoke ->
        { Server.default_params with
          Server.sessions = 4; workers = 2; requests = 2; think_ms;
          loop = Server.Closed }
  in
  let vps = match size with Full -> 64 | Smoke -> 8 in
  ( { (Config.ms ~processors:vps ()) with Config.engine = Config.Engine_calendar },
    p )

let serve_setup size ~seed =
  let config, _ = serve_params size ~seed in
  let vm = Vm.create config in
  Vm.load_classes vm Macro.benchmark_classes;
  Vm.load_classes vm Server.server_classes

let serve_pass size ~seed ~dir:_ =
  let config, p = serve_params size ~seed in
  let (vm, s), host_s =
    timed (fun () -> layer ~layer:"core" "Server.run" (fun () -> Server.run config p))
  in
  let expected = p.Server.sessions * p.Server.requests in
  let failures =
    if s.Server.quiesced && s.Server.completed = s.Server.offered
       && s.Server.offered = expected
    then []
    else
      failed_pass ~ops:(expected - s.Server.completed)
        (Printf.sprintf "offered %d, completed %d of %d%s" s.Server.offered
           s.Server.completed expected
           (if s.Server.quiesced then "" else ", did not quiesce"))
  in
  let cm = config.Config.cost in
  let layer_values = layer_counters [ vm ] in
  let lat = s.Server.latency in
  let backed p = Stats.backed ~n:s.Server.completed p in
  let digest_text =
    Printf.sprintf "%d/%d/%d;lat=%d,%d,%d,%d;cyc=%d;steps=%d;ev=%d;parks=%d;%s"
      s.Server.offered s.Server.completed s.Server.rejected lat.Server.p50
      lat.Server.p90 lat.Server.p99 lat.Server.pmax s.Server.run_cycles
      s.Server.steps s.Server.engine_events s.Server.parks
      (String.concat "," (Array.to_list (Array.map string_of_int s.Server.per_session)))
    ^ ";" ^ counters_text layer_values
  in
  { host_s;
    ops = expected;
    failures;
    sim =
      [ ("sim_seconds", s.Server.sim_seconds);
        ("latency_p50_ms", if backed 50. then ms_of_cycles cm lat.Server.p50 else 0.);
        ("latency_p99_ms", if backed 99. then ms_of_cycles cm lat.Server.p99 else 0.);
        ("latency_samples", float_of_int s.Server.completed) ];
    digest_text;
    bytecodes = s.Server.steps;
    layer = layer_values;
    engine = Some ("Server.run", `Calendar, s.Server.engine_events);
    probe_vm = (fun () -> vm) }

(* ============ gc-churn: the E18 collector under churn ============ *)

(* E18's configuration: 4 VPs, a 2048-word eden, tenure age 1, the
   incremental major collector on.  The churn loop keeps a window of
   recent objects alive, so every scavenge tenures survivors that then die
   in old space.  Seed 0 is E18's GcChurn with its 300-object window;
   other seeds draw the window, which sets how long tenured objects live
   and so how much the major collector marks, while the allocation per
   iteration stays fixed and host work stays comparable across seeds. *)
let churn_window ~seed =
  if seed = 0 then 300 else 200 + Random.State.int (rng ~seed 4) 201

let churn_classes ~seed =
  let window = churn_window ~seed in
  Printf.sprintf
    {st|
CLASS GcChurn SUPER Object
METHODS GcChurn
churn: n
    | keep p |
    keep := Array new: %d.
    1 to: n do: [:i |
        p := Point x: i y: i.
        (Array new: 16) at: 1 put: p.
        keep at: i \\ %d + 1 put: (Array with: p with: i)].
    ^n
!
|st}
    window window

let churn_config () =
  { (Config.ms ~processors:4 ()) with
    Config.eden_words = 2048;
    survivor_words = 1024;
    tenure_age = 1;
    old_words = 256 * 1024;
    major_enabled = true }

(* 75k iterations give over 1000 scavenges and 1000 slices, so the p99
   of each pause population is backed. *)
let churn_iterations = function Full -> 75_000 | Smoke -> 2_000

let churn_setup _size ~seed =
  let vm = Vm.create (churn_config ()) in
  Vm.load_classes vm (churn_classes ~seed)

let churn_pass size ~seed ~dir:_ =
  let config = churn_config () in
  let vm = layer ~layer:"image" "Vm.create" (fun () -> Vm.create config) in
  layer ~layer:"compiler" "Vm.load_classes" (fun () ->
      Vm.load_classes vm (churn_classes ~seed));
  let n = churn_iterations size in
  let watch =
    layer ~layer:"compiler" "Vm.spawn" (fun () ->
        Vm.spawn vm (Printf.sprintf "GcChurn new churn: %d" n))
  in
  let c0 = Vm.cycles vm and s0 = total_steps vm in
  let outcome, host_s =
    timed (fun () -> layer ~layer:"core" "Vm.run" (fun () -> Vm.run ~watch vm))
  in
  let cycles = Vm.cycles vm - c0 and bytecodes = total_steps vm - s0 in
  let layer_values = layer_counters [ vm ] in
  let cm = config.Config.cost in
  let mj = Option.get vm.Vm.major in
  let pauses = vm.Vm.scavenge_pause_costs @ Major.slice_costs mj in
  let pause_ms p =
    match Stats.percentile (List.map float_of_int pauses) p with
    | Some c -> ms_of_cycles cm (int_of_float c)
    | None -> 0.
  in
  (* oracle: the run finishes, and once any in-flight major cycle is
     completed the whole heap verifies *)
  let failures =
    match outcome with
    | Vm.Deadlock | Vm.Cycle_limit -> failed_pass ~ops:1 "churn did not finish"
    | Vm.Finished _ -> (
        if Major.phase mj <> Major.Idle then
          ignore
            (layer ~layer:"objmem" "Major.finish_cycle" (fun () ->
                 Major.finish_cycle mj cm));
        match layer ~layer:"objmem" "Verify.check" (fun () -> Verify.check vm.Vm.heap) with
        | [] -> []
        | p :: _ ->
            failed_pass ~ops:1 (Format.asprintf "heap check: %a" Verify.pp_problem p))
  in
  let digest_text =
    Printf.sprintf "cyc=%d;steps=%d;scav=%s;slices=%s;%s" cycles bytecodes
      (String.concat "," (List.map string_of_int vm.Vm.scavenge_pause_costs))
      (String.concat "," (List.map string_of_int (Major.slice_costs mj)))
      (counters_text layer_values)
  in
  { host_s;
    ops = 1;
    failures;
    sim =
      [ ("sim_seconds", Cost_model.seconds cm cycles);
        ("gc_pause_p50_ms", pause_ms 50.);
        ("gc_pause_p99_ms", pause_ms 99.);
        ("gc_pause_samples", float_of_int (List.length pauses)) ];
    digest_text;
    bytecodes;
    layer = layer_values;
    engine = Some ("Vm.run", `Scan, vm.Vm.engine_events);
    probe_vm = (fun () -> vm) }

(* ============ cluster: the E19 replicated image cluster ============ *)

(* Three replicas over a durable command log with one injected crash and
   a checkpoint every 8 entries.  Seed 0 is E19's log (log seed 1) and
   crash (crash seed 5); other seeds draw both. *)
let cluster_params size ~seed ~dir =
  let log_seed, crash_seed =
    if seed = 0 then (1, 5)
    else
      let r = rng ~seed 5 in
      (1 + Random.State.int r 1_000_000, 1 + Random.State.int r 1_000_000)
  in
  { Replica.default_params with
    Replica.replicas = 3;
    requests = (match size with Full -> 400 | Smoke -> 16);
    checkpoint_every = 8;
    log_seed;
    crash_seed = Some crash_seed;
    dir = Some dir }

let cluster_setup _size ~seed:_ =
  let p = Replica.default_params in
  ignore (Replica.build_node ~slots:p.Replica.slots ~shards:p.Replica.shards)

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let cluster_pass size ~seed ~dir =
  let dir = Filename.concat dir "cluster" in
  remove_tree dir;
  let p = cluster_params size ~seed ~dir in
  let o, host_s =
    timed (fun () -> layer ~layer:"core" "Replica.run" (fun () -> Replica.run p))
  in
  remove_tree dir;
  let failures =
    if o.Replica.divergences <> [] || not o.Replica.converged then
      failed_pass ~ops:o.Replica.entries
        (String.concat "; " ("did not converge" :: o.Replica.divergences))
    else if o.Replica.crashes > 0 && o.Replica.rejoins = 0 then
      failed_pass ~ops:o.Replica.entries "a replica crashed and never rejoined"
    else []
  in
  let digest_text =
    Printf.sprintf "e=%d;w=%d;c=%d;r=%d;f=%d;s=%d;m=%d;lag=%d;a=%d;fp=%d;%b"
      o.Replica.entries o.Replica.waves o.Replica.crashes o.Replica.rejoins
      o.Replica.fallbacks o.Replica.served o.Replica.missed
      o.Replica.max_rejoin_lag o.Replica.availability_permil
      o.Replica.final_fingerprint o.Replica.converged
  in
  { host_s;
    ops = o.Replica.entries;
    failures;
    sim = [ ("availability_permil", float_of_int o.Replica.availability_permil) ];
    digest_text;
    bytecodes = 0;
    layer =
      [ ("core.replica.waves", float_of_int o.Replica.waves);
        ("core.replica.rejoins", float_of_int o.Replica.rejoins);
        ("core.replica.fallbacks", float_of_int o.Replica.fallbacks);
        ("core.replica.max_rejoin_lag", float_of_int o.Replica.max_rejoin_lag) ];
    engine = None;
    probe_vm =
      (fun () -> (Replica.build_node ~slots:p.Replica.slots ~shards:p.Replica.shards).Replica.vm) }

(* ============ explore: seeded schedule exploration ============ *)

(* The published MS configuration under the strict sanitizer with four
   busy Processes: every execution bootstraps a VM, so bootstrap and
   sanitizer costs dominate.  A pass explores consecutive seeds starting
   at the run's seed. *)
let explore_setup_of = function
  | Full -> Explorer.ms_setup ()
  | Smoke -> Explorer.ms_setup ~quick:true ()

let explore_seeds = function Full -> 40 | Smoke -> 2

(* What every execution bootstraps before it runs the explored doIt. *)
let explorer_vm size =
  let s = explore_setup_of size in
  let vm = Vm.create s.Explorer.config in
  ignore (Workloads.spawn_busy vm s.Explorer.busy);
  vm

let explore_setup size ~seed:_ = ignore (explorer_vm size)

let explore_pass size ~seed ~dir:_ =
  let setup = explore_setup_of size in
  let n = explore_seeds size in
  let (reference, outcomes), host_s =
    timed (fun () ->
        let reference =
          layer ~layer:"core" "Explorer.reference" (fun () -> Explorer.reference setup)
        in
        let outcomes =
          List.init n (fun i ->
              let o =
                layer ~layer:"core" "Explorer.run_seed" (fun () ->
                    Explorer.run_seed setup ~seed:(seed + i))
              in
              (o, Explorer.check ~reference o))
        in
        (reference, outcomes))
  in
  let failures =
    (match reference.Explorer.error with
     | Some e -> [ (-1, "reference run: " ^ e) ]
     | None -> [])
    @ List.filter_map Fun.id
        (List.mapi
           (fun i (_, verdict) -> Option.map (fun e -> (seed + i, e)) verdict)
           outcomes)
  in
  let show (o : Explorer.outcome) =
    match o.Explorer.obs with
    | None -> "-"
    | Some obs ->
        Printf.sprintf "%s/%s/%d/%d/%d" obs.Explorer.result
          (Digest.to_hex (Digest.string obs.Explorer.transcript))
          (Verify.fingerprint obs.Explorer.census) o.Explorer.queries
          (Explore.fingerprint o.Explorer.schedule)
  in
  let sum f = float_of_int (List.fold_left (fun a (o, _) -> a + f o) 0 outcomes) in
  { host_s;
    ops = n + 1;
    failures;
    sim = [ ("executions", float_of_int (n + 1)) ];
    digest_text = String.concat ";" (show reference :: List.map (fun (o, _) -> show o) outcomes);
    bytecodes = 0;
    layer =
      [ ("vkernel.explore.queries", sum (fun o -> o.Explorer.queries));
        ("vkernel.explore.perturbations",
         sum (fun o -> List.length o.Explorer.schedule)) ];
    engine = None;
    probe_vm = (fun () -> explorer_vm size) }

let all =
  [ { name = "table2";
      why = "the paper's Table 2 (8 benchmarks x 4 states): interpreter dispatch, lookup, allocation and the scheduler lock on the scan engine";
      seed_mapping = "seed 0 runs the 32 cells in the paper's order; other seeds permute the order";
      setup = table2_setup;
      run_pass = table2_pass };
    { name = "serve";
      why = "the E17 image server, 1024 requests on 64 VPs: calendar-engine event selection and parking, the only calendar-engine workload";
      seed_mapping = "seed 0 thinks 10 s between requests; other seeds jitter it within 2%";
      setup = serve_setup;
      run_pass = serve_pass };
    { name = "gc-churn";
      why = "the E18 collector under churn: tenuring, the write barrier, scavenges and major slices, negligible elsewhere";
      seed_mapping = "seed 0 is E18's churn loop (window 300); other seeds draw the live window from 200..400";
      setup = churn_setup;
      run_pass = churn_pass };
    { name = "cluster";
      why = "the E19 replicated cluster: snapshot capture, save, load and restore, the command log, crash and rejoin";
      seed_mapping = "seed 0 uses E19's log seed 1 and crash seed 5; other seeds draw both";
      setup = cluster_setup;
      run_pass = cluster_pass };
    { name = "explore";
      why = "seeded schedule exploration: a VM bootstrap and the strict sanitizer per execution, near zero in table2";
      seed_mapping = "a pass explores 40 consecutive explorer seeds starting at the seed";
      setup = explore_setup;
      run_pass = explore_pass } ]

let find name = List.find_opt (fun w -> w.name = name) all
