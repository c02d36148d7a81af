(* The layered performance benchmark.

     bench/perf/run.sh --workload table2 --seed 0 --seconds 12 --trace 0
     bench/perf/run.sh                        -- all five workloads
     bench/perf/run.sh --smoke BENCHMARK.json -- tiny sizes, checks names
     bench/perf/run.sh --compare A.jsonl ... -- B.jsonl ...

   A run builds the workload's VMs repeatedly to time set-up, runs one
   untimed warm-up pass, then runs timed passes until --seconds have
   elapsed.  Every pass must reproduce the warm-up pass's simulated
   results exactly.  Host times are medians over passes, except
   host_wall_norm, the fastest pass over the fastest run of a fixed
   reference loop timed before every set-up and pass.  With --trace 1
   half the passes record spans around each call into a layer, the layer
   probes run, and the spans are written as a Chrome trace.  The last
   line of standard output is one JSON object: the end-to-end metrics
   untraced, the per-layer metrics traced. *)

open Perfkit

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]\n\
    \                [--trace-file FILE] [--json FILE]\n\
    \       main.exe --smoke BENCHMARK.json\n\
    \       main.exe --compare A.jsonl ... -- B.jsonl ...";
  exit 2

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perf: " ^ m); exit 2) fmt

let scratch_root = ".perfbench"

let mkdir_p d =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go d

(* --- one workload run --- *)

type run = {
  workload : Workload.t;
  seed : int;
  setups : float list;
  walls : float list;  (** untraced timed passes *)
  references : float list;  (** reference-loop times, one per set-up and pass *)
  traced_walls : float list;
  first : Workload.pass;
  attempted : int;
  failed : int;
  messages : string list;
  peak_heap_mb : float;
  e2e : (Catalog.metric * float) list;
  layer : (string * float) list;  (** traced runs only *)
  layer_time : (string * float * int) list;  (** traced: layer, self s, calls *)
}

let setup_reps : Workload.size -> int = function Full -> 31 | Smoke -> 3

let run_workload ~size ~seed ~seconds ~trace (w : Workload.t) =
  let dir = Filename.concat scratch_root (string_of_int (Unix.getpid ())) in
  mkdir_p dir;
  let references = ref [] in
  let settle () =
    Gc.full_major ();
    references := Reference.time () :: !references
  in
  let setups =
    List.init (setup_reps size) (fun _ ->
        settle ();
        snd (Workload.timed (fun () -> w.Workload.setup size ~seed)))
  in
  let pass ~traced =
    settle ();
    if traced then Span.start ();
    let p =
      Span.record ~layer:"bench" "pass" (fun () -> w.Workload.run_pass size ~seed ~dir)
    in
    Span.stop ();
    p
  in
  Span.reset ();
  let first = pass ~traced:false in
  (* the OCaml heap's peak over set-up and one pass: measured here, before
     the timed loop, so it does not depend on how many passes fit *)
  let peak_heap_mb =
    Gc.full_major ();
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let attempted = ref first.Workload.ops in
  let failures = ref first.Workload.failures in
  let check (p : Workload.pass) =
    attempted := !attempted + p.Workload.ops;
    failures := !failures @ p.Workload.failures;
    if p.Workload.digest_text <> first.Workload.digest_text then
      failures :=
        !failures
        @ List.init (max 1 p.Workload.ops) (fun i ->
              (i, "a timed pass's simulated results differ from the warm-up pass's"))
  in
  let walls = ref [] and traced_walls = ref [] and last = ref first in
  let t0 = Unix.gettimeofday () in
  let rec loop k =
    let traced = trace && k mod 2 = 1 in
    let p = pass ~traced in
    check p;
    last := p;
    if traced then traced_walls := p.Workload.host_s :: !traced_walls
    else walls := p.Workload.host_s :: !walls;
    let enough = (not trace) || !traced_walls <> [] in
    if Unix.gettimeofday () -. t0 < seconds || not enough then loop (k + 1)
  in
  loop 0;
  let wall = Stats.median !walls in
  let sim name = List.assoc_opt name first.Workload.sim in
  let failed = List.length !failures in
  let value (m : Catalog.metric) =
    match m.Catalog.name with
    | "setup_s" -> Some (Stats.median setups)
    | "host_wall_s" -> Some wall
    | "host_wall_norm" ->
        (* interference only ever adds time, so the least-disturbed pass
           over the least-disturbed loop run is the steadiest ratio *)
        Some (List.fold_left Float.min infinity !walls
              /. List.fold_left Float.min infinity !references)
    | "host_peak_heap_mb" -> Some peak_heap_mb
    | "sim_bytecodes_per_host_s" ->
        Some (float_of_int first.Workload.bytecodes /. wall)
    | "execs_per_host_s" -> Option.map (fun n -> n /. wall) (sim "executions")
    | "error_rate" -> Some (float_of_int failed /. float_of_int (max 1 !attempted))
    | name -> sim name
  in
  let e2e =
    List.filter_map
      (fun m ->
        if Catalog.applies m w.Workload.name then
          Option.map (fun v -> (m, v)) (value m)
        else None)
      Catalog.end_to_end
  in
  let layer, layer_time =
    if not trace then ([], [])
    else begin
      let spans = Span.spans () in
      let passes = float_of_int (List.length !traced_walls) in
      let under_pass = Span.by_layer ~root:(fun s -> s.Span.name = "pass") spans in
      let pass_s =
        List.fold_left
          (fun a (s : Span.span) ->
            if s.Span.parent = -1 then a +. (s.Span.stop -. s.Span.start) else a)
          0. spans
      in
      let self_of name =
        List.fold_left
          (fun (t, c) ((s : Span.span), self) ->
            if s.Span.name = name then (t +. self, c + 1) else (t, c))
          (0., 0) (Span.self_times spans)
      in
      let engine =
        match !last.Workload.engine with
        | Some (span, kind, events) when events > 0 ->
            let self, _ = self_of span in
            let ns = 1e9 *. self /. (passes *. float_of_int events) in
            [ ( (match kind with
                 | `Scan -> "core.host_ns_per_event.scan"
                 | `Calendar -> "core.host_ns_per_event.calendar"),
                ns ) ]
        | _ -> []
      in
      let explorer =
        match self_of "Explorer.run_seed" with
        | _, 0 -> []
        | t, c -> [ ("core.explorer.host_ms_per_execution", 1e3 *. t /. float_of_int c) ]
      in
      let shares =
        List.concat_map
          (fun layer ->
            let self, calls =
              List.fold_left
                (fun acc (l, t, c) -> if l = layer then (t, c) else acc)
                (0., 0) under_pass
            in
            [ (layer ^ ".trace.host_share_pct", 100. *. self /. pass_s);
              (layer ^ ".trace.calls", float_of_int calls /. passes) ])
          Catalog.layers
      in
      Span.start ();
      let probes = Probes.run size ~vm:(!last.Workload.probe_vm ()) ~dir in
      Span.stop ();
      let known = !last.Workload.layer @ engine @ explorer @ shares @ probes in
      ( List.map
          (fun (name, _, _) -> (name, Option.value ~default:0. (List.assoc_opt name known)))
          Catalog.per_layer,
        under_pass )
    end
  in
  (try Sys.rmdir dir with Sys_error _ -> ());
  { workload = w; seed; setups; walls = List.rev !walls;
    references = List.rev !references;
    traced_walls = List.rev !traced_walls; first; attempted = !attempted;
    failed;
    messages =
      List.sort_uniq compare (List.map snd !failures);
    peak_heap_mb; e2e; layer; layer_time }

let sim_digest r = Digest.to_hex (Digest.string r.first.Workload.digest_text)

(* --- output --- *)

let metric_json ~value ~unit_ =
  Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit_) ]

(* The result line: gated end-to-end metrics untraced, per-layer traced. *)
let result_line ~trace r =
  let metrics =
    if trace then
      List.map
        (fun (name, v) ->
          (name, metric_json ~value:v ~unit_:(Option.get (Catalog.per_layer_unit name))))
        r.layer
    else
      List.filter_map
        (fun ((m : Catalog.metric), v) ->
          if m.Catalog.gated then Some (m.Catalog.name, metric_json ~value:v ~unit_:m.Catalog.unit_)
          else None)
        r.e2e
  in
  Json.Obj
    [ ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", Json.Obj metrics) ]

(* The full record --json appends and --compare reads. *)
let record ~seconds ~trace r =
  let samples name =
    match name with
    | "setup_s" -> r.setups
    | "host_wall_s" -> r.walls
    | "host_wall_norm" -> r.references
    | _ -> []
  in
  Json.Obj
    [ ("workload", Json.Str r.workload.Workload.name);
      ("seed", Json.Num (float_of_int r.seed));
      ("seconds", Json.Num seconds);
      ("trace", Json.Bool trace);
      ("sim_digest", Json.Str (sim_digest r));
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun ((m : Catalog.metric), v) ->
               ( m.Catalog.name,
                 Json.Obj
                   [ ("value", Json.Num v);
                     ("unit", Json.Str m.Catalog.unit_);
                     ("clock", Json.Str (Catalog.clock_name m.Catalog.clock));
                     ("samples", Json.Arr (List.map (fun x -> Json.Num x) (samples m.Catalog.name))) ] ))
             r.e2e) );
      ( "per_layer",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Num v)) r.layer) ) ]

let spread_note xs =
  match xs with
  | [] | [ _ ] -> Printf.sprintf "%d sample(s)" (List.length xs)
  | _ ->
      let q1, _, q3 = Stats.quartiles xs in
      Printf.sprintf "median of %d, quartiles %.4g..%.4g, spread %.1f%%" (List.length xs)
        q1 q3 (100. *. Stats.spread xs)

let print_human ~seconds ~trace r =
  let w = r.workload in
  Printf.printf "== %s (seed %d, %g s%s): %s\n" w.Workload.name r.seed seconds
    (if trace then ", traced" else "")
    w.Workload.why;
  Printf.printf "   inputs: %s\n" w.Workload.seed_mapping;
  List.iter
    (fun ((m : Catalog.metric), v) ->
      let note =
        match m.Catalog.name with
        | "setup_s" -> spread_note r.setups
        | "host_wall_s" -> spread_note r.walls
        | "host_wall_norm" ->
            Printf.sprintf "fastest pass over fastest of %d reference-loop runs (%.4g s)"
              (List.length r.references) (List.fold_left Float.min infinity r.references)
        | "latency_p50_ms" | "latency_p99_ms" ->
            Printf.sprintf "%.0f requests"
              (Option.value ~default:0. (List.assoc_opt "latency_samples" r.first.Workload.sim))
        | "gc_pause_p50_ms" | "gc_pause_p99_ms" ->
            Printf.sprintf "%.0f pauses"
              (Option.value ~default:0. (List.assoc_opt "gc_pause_samples" r.first.Workload.sim))
        | "error_rate" -> Printf.sprintf "%d failed of %d attempted" r.failed r.attempted
        | _ -> ""
      in
      Printf.printf "   %-26s %16.6g %-12s %-4s %-6s %s\n" m.Catalog.name v m.Catalog.unit_
        (Catalog.clock_name m.Catalog.clock) (Catalog.better_name m.Catalog.better) note)
    r.e2e;
  Printf.printf "   %-26s %s\n" "sim_digest" (sim_digest r);
  List.iter (fun m -> Printf.printf "   FAILED: %s\n" m) r.messages;
  if trace then begin
    Printf.printf "   per-layer host time over %d traced pass(es):\n"
      (List.length r.traced_walls);
    List.iter
      (fun (layer, self, calls) ->
        Printf.printf "     %-9s %10.1f ms self %8d calls\n" layer (1e3 *. self) calls)
      r.layer_time;
    (match (r.walls, r.traced_walls) with
     | _ :: _, _ :: _ ->
         let u = Stats.median r.walls and t = Stats.median r.traced_walls in
         Printf.printf
           "   tracing overhead on host_wall_s: %+.2f%% (traced %.4f s, untraced %.4f s)\n"
           (100. *. ((t /. u) -. 1.)) t u
     | _ -> ());
    List.iter
      (fun (name, v) ->
        Printf.printf "   %-50s %14.6g %s\n" name v
          (Option.get (Catalog.per_layer_unit name)))
      r.layer
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let append_line path line =
  mkdir_p (Filename.dirname path);
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (line ^ "\n");
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* --- all workloads, each in a fresh child process --- *)

let run_all ~seed ~seconds ~trace ~json =
  let ok = ref true in
  List.iter
    (fun (w : Workload.t) ->
      let args =
        [ Sys.executable_name; "--workload"; w.Workload.name; "--seed";
          string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds; "--trace";
          (if trace then "1" else "0") ]
        @ match json with Some f -> [ "--json"; f ] | None -> []
      in
      let pid =
        Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
          Unix.stdout Unix.stderr
      in
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> ()
      | _ ->
          ok := false;
          Printf.printf "perf: workload %s failed\n%!" w.Workload.name)
    Workload.all;
  exit (if !ok then 0 else 1)

(* --- compare --- *)

let load_records files =
  List.concat_map
    (fun f ->
      String.split_on_char '\n' (read_file f)
      |> List.filter (fun l -> String.trim l <> "")
      |> List.map (fun l ->
             try Json.parse l
             with Json.Parse_error e -> die "%s: %s" f e))
    files

let str k j = Option.bind (Json.member k j) Json.to_str |> Option.value ~default:""

let num k j = Option.bind (Json.member k j) Json.to_num

let metric_value name j =
  Option.bind (Json.member "metrics" j) (fun m ->
      Option.bind (Json.member name m) (num "value"))

type verdict = Identical | Changed | No_common_seed | Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Identical -> "identical"
  | Changed -> "CHANGED"
  | No_common_seed -> "no common seed"
  | Better -> "better"
  | Worse -> "WORSE"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* Host metrics: a regression is a median worse by more than the bound; a spread wider than the bound leaves
   the result unresolved unless every B run beats every A run; a gain
   needs nine in ten pairs won and a median gap wider than A's
   interquartile distance. *)
let host_verdict (m : Catalog.metric) a b =
  let beats x y = match m.Catalog.better with Lower -> x < y | Higher -> x > y in
  let ma = Stats.median a and mb = Stats.median b in
  let q1, _, q3 = Stats.quartiles a in
  let worse_by =
    (match m.Catalog.better with Lower -> mb -. ma | Higher -> ma -. mb) /. Float.abs ma
  in
  let all_better = List.for_all (fun x -> List.for_all (fun y -> beats x y) a) b in
  (* the i-th run of each set forms a pair *)
  let rec pairs a b = match (a, b) with x :: a, y :: b -> (x, y) :: pairs a b | _ -> [] in
  let pairs = pairs a b in
  let wins = List.length (List.filter (fun (x, y) -> beats y x) pairs) in
  let gap = Float.abs (mb -. ma) > q3 -. q1 in
  if all_better && gap then Better
  else if Stats.spread a > m.Catalog.bound || Stats.spread b > m.Catalog.bound then Unresolved
  else if worse_by > m.Catalog.bound then Worse
  else if worse_by < 0. && gap && 10 * wins >= 9 * List.length pairs then Better
  else Unchanged

let compare_sets a_files b_files =
  let a = load_records a_files and b = load_records b_files in
  let workloads =
    List.sort_uniq compare (List.map (str "workload") (a @ b))
  in
  let bad = ref false in
  Printf.printf "%-9s %-26s %-5s %-28s %-28s %s\n" "workload" "metric" "clock" "A"
    "B" "verdict";
  List.iter
    (fun wl ->
      let ra = List.filter (fun j -> str "workload" j = wl) a in
      let rb = List.filter (fun j -> str "workload" j = wl) b in
      (* simulated values must agree run for run on every seed; only seeds
         both sets ran can show that the two commits agree *)
      let exact label get =
        let by_seed = Hashtbl.create 8 in
        List.iter
          (fun j -> Hashtbl.add by_seed (num "seed" j) (get j))
          (ra @ rb);
        let seeds = List.sort_uniq compare (List.map (num "seed") (ra @ rb)) in
        let same =
          List.for_all
            (fun s ->
              match Hashtbl.find_all by_seed s with
              | [] -> true
              | v :: rest -> List.for_all (( = ) v) rest)
            seeds
        in
        let shared =
          List.exists (fun j -> List.mem (num "seed" j) (List.map (num "seed") rb)) ra
        in
        let show rs =
          match rs with
          | j :: _ -> (match get j with Some v -> v | None -> "-")
          | [] -> "-"
        in
        let v =
          if not same then Changed else if shared then Identical else No_common_seed
        in
        if v = Changed then bad := true;
        Printf.printf "%-9s %-26s %-5s %-28s %-28s %s\n" wl label "sim" (show ra) (show rb)
          (verdict_name v)
      in
      exact "sim_digest" (fun j -> Some (str "sim_digest" j));
      List.iter
        (fun (m : Catalog.metric) ->
          if Catalog.applies m wl then
            match m.Catalog.clock with
            | Sim ->
                exact m.Catalog.name (fun j ->
                    Option.map (Printf.sprintf "%.17g") (metric_value m.Catalog.name j))
            | Host -> (
                let vals rs = List.filter_map (metric_value m.Catalog.name) rs in
                match (vals ra, vals rb) with
                | (_ :: _ as va), (_ :: _ as vb) ->
                    let show v =
                      let q1, med, q3 = Stats.quartiles v in
                      Printf.sprintf "%.4g [%.4g..%.4g] n=%d" med q1 q3 (List.length v)
                    in
                    let v = host_verdict m va vb in
                    if v = Worse then bad := true;
                    Printf.printf "%-9s %-26s %-5s %-28s %-28s %s\n" wl m.Catalog.name
                      "host" (show va) (show vb) (verdict_name v)
                | _ -> ()))
        Catalog.end_to_end)
    workloads;
  exit (if !bad then 1 else 0)

(* --- smoke: tiny sizes, every name printed, every oracle passing --- *)

let smoke benchmark_json =
  let spec =
    try Json.parse (read_file benchmark_json)
    with Json.Parse_error e | Sys_error e -> die "%s: %s" benchmark_json e
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let entries key = Json.to_list (Option.value ~default:Json.Null (Json.member key spec)) in
  let names key = List.map (str "name") (entries key) in
  let gated =
    List.filter (fun (m : Catalog.metric) -> m.Catalog.gated) Catalog.end_to_end
  in
  if List.map (fun j -> (str "name" j, str "why" j)) (entries "workloads")
     <> List.map (fun (w : Workload.t) -> (w.Workload.name, w.Workload.why)) Workload.all
  then problem "BENCHMARK.json workloads differ from the benchmark's";
  if List.sort compare (names "end_to_end")
     <> List.sort compare (List.map (fun (m : Catalog.metric) -> m.Catalog.name) gated)
  then problem "BENCHMARK.json end_to_end names differ from the catalogue's";
  List.iter
    (fun j ->
      match Catalog.find_e2e (str "name" j) with
      | Some m ->
          if str "unit" j <> m.Catalog.unit_
             || str "better" j <> Catalog.better_name m.Catalog.better
             || num "bound" j <> Some m.Catalog.bound
          then problem "end_to_end %s: unit, direction or bound differ" m.Catalog.name
      | None -> ())
    (entries "end_to_end");
  if List.map (fun j -> (str "name" j, str "unit" j, str "better" j)) (entries "per_layer")
     <> List.map (fun (n, u, b) -> (n, u, Catalog.better_name b)) Catalog.per_layer
  then problem "BENCHMARK.json per_layer differs from the catalogue";
  List.iter
    (fun (w : Workload.t) ->
      let r = run_workload ~size:Smoke ~seed:0 ~seconds:0. ~trace:true w in
      Printf.printf "perf smoke: %s: %d outcomes checked, digest %s\n%!" w.Workload.name
        r.attempted (sim_digest r);
      if r.failed > 0 then
        problem "%s: %d of %d outcomes failed: %s" w.Workload.name r.failed r.attempted
          (String.concat "; " r.messages);
      List.iter
        (fun trace ->
          let line = Json.to_string (result_line ~trace r) in
          let metrics = Option.get (Json.member "metrics" (Json.parse line)) in
          List.iter
            (fun j ->
              let name = str "name" j in
              match Json.member name metrics with
              | Some m when str "unit" m = str "unit" j -> ()
              | _ -> problem "%s: %s not printed with unit %s" w.Workload.name name (str "unit" j))
            (entries (if trace then "per_layer" else "end_to_end")))
        [ false; true ];
      let trace_file = Filename.concat scratch_root "smoke-trace.json" in
      write_file trace_file (Json.to_string (Span.chrome_json (Span.spans ())));
      (match Json.member "traceEvents" (Json.parse (read_file trace_file)) with
       | Some (Json.Arr (_ :: _)) -> ()
       | _ -> problem "%s: the trace file holds no events" w.Workload.name);
      Sys.remove trace_file)
    Workload.all;
  match !problems with
  | [] -> print_endline "perf smoke: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("perf smoke: " ^ p)) (List.rev ps);
      exit 1

(* --- command line --- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let workload = ref "all" and seed = ref 0 and seconds = ref 12. and trace = ref false in
  let trace_file = ref None and json = ref None in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s expects an integer, got %S" flag v
  in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: file :: [] -> smoke file; exit 0
    | "--compare" :: rest ->
        let rec split acc = function
          | "--" :: b -> (List.rev acc, b)
          | x :: xs -> split (x :: acc) xs
          | [] -> ([], [])
        in
        let a, b = split [] rest in
        if a = [] || b = [] then die "--compare needs A files, --, then B files";
        compare_sets a b
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_arg "--seed" v; parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
         | Some s when s >= 0. -> seconds := s
         | _ -> die "--seconds expects a non-negative number, got %S" v);
        parse rest
    | "--trace" :: v :: rest ->
        (match v with
         | "0" -> trace := false
         | "1" -> trace := true
         | _ -> die "--trace expects 0 or 1, got %S" v);
        parse rest
    | "--trace-file" :: v :: rest -> trace_file := Some v; parse rest
    | "--json" :: v :: rest -> json := Some v; parse rest
    | a :: _ -> prerr_endline ("perf: unknown or incomplete argument " ^ a); usage ()
  in
  parse args;
  if !workload = "all" then run_all ~seed:!seed ~seconds:!seconds ~trace:!trace ~json:!json
  else
    match Workload.find !workload with
    | None ->
        die "unknown workload %s (%s or all)" !workload
          (String.concat ", " (List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all))
    | Some w ->
        let r = run_workload ~size:Full ~seed:!seed ~seconds:!seconds ~trace:!trace w in
        print_human ~seconds:!seconds ~trace:!trace r;
        if !trace then begin
          let path =
            match !trace_file with
            | Some f -> f
            | None ->
                Filename.concat scratch_root
                  (Printf.sprintf "trace-%s-seed%d.json" w.Workload.name !seed)
          in
          write_file path (Json.to_string (Span.chrome_json (Span.spans ())));
          Printf.printf "   trace written to %s (Chrome Trace Event JSON)\n" path
        end;
        Option.iter
          (fun f -> append_line f (Json.to_string (record ~seconds:!seconds ~trace:!trace r)))
          !json;
        print_endline (Json.to_string (result_line ~trace:!trace r));
        exit (if r.failed = 0 then 0 else 1)
