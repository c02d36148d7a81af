(* Scavenge economics (paper section 3.1).

   The paper argues: the scavenge interval is roughly s/r (allocation-space
   size over allocation rate), so doubling s doubles the interval; with k
   processors allocating, an allocation space of k*s keeps the interval —
   and scavenging stays a small fraction (~3%) of processor time.  The
   parallel-scavenge extension ("applying multiple processors to the
   scavenging operation") should hold the total overhead near the
   uniprocessor figure. *)

type row = {
  eden_kb : int;
  allocators : int;
  scavenge_workers : int;
  scavenges : int;
  interval_s : float;        (* mean simulated time between scavenges *)
  gc_share : float;          (* fraction of run time spent scavenging *)
  total_s : float;
  mean_pause_ms : float;     (* mean stop-the-world pause *)
  coord_share : float;       (* coordination cycles / scavenge cycles *)
  imbalance : float;         (* max worker busy / mean worker busy; 1.0 serial *)
}

(* An allocation-heavy workload: the per-iteration allocation mirrors the
   busy Process. *)
let churn_classes = {st|
CLASS GcChurn SUPER Object
METHODS GcChurn
churn: n
    "allocate continuously, keeping a window of recent objects live so
     every scavenge has real survivors to copy"
    | keep p |
    keep := Array new: 300.
    1 to: n do: [:i |
        p := Point x: i y: i.
        (Array new: 16) at: 1 put: p.
        keep at: i \\ 300 + 1 put: (Array with: p with: i)].
    ^n
!
spawnChurn: n done: sem
    [ self churn: n. sem signal ] fork
!
|st}

(* [sanitize] overrides the configuration's sanitizer mode; under [Strict]
   any parallel-scavenge invariant violation or heap-verification failure
   aborts the run. *)
let run_one ?sanitize ~eden_kb ~allocators ~scavenge_workers ~iterations () =
  let processors = max 1 allocators in
  let config =
    let base =
      if processors = 1 then Config.ms ~processors:1 ()
      else Config.ms ~processors ()
    in
    { base with
      Config.eden_words = eden_kb * 1024 / 8;
      Config.scavenge_workers;
      Config.sanitize =
        (match sanitize with Some m -> m | None -> base.Config.sanitize) }
  in
  let vm = Vm.create config in
  Vm.load_classes vm churn_classes;
  let src =
    if allocators <= 1 then
      Printf.sprintf "GcChurn new churn: %d" iterations
    else
      Printf.sprintf
        "| sem churn |\n\
         sem := Semaphore new.\n\
         churn := GcChurn new.\n\
         1 to: %d do: [:k | churn spawnChurn: %d done: sem].\n\
         1 to: %d do: [:k | sem wait].\n\
         ^0"
        allocators (iterations / allocators) allocators
  in
  let t0 = Vm.cycles vm in
  (match Vm.run ~watch:(Vm.spawn vm src) vm with
   | Vm.Finished _ -> ()
   | Vm.Deadlock | Vm.Cycle_limit -> failwith "gc study run failed");
  let cycles = Vm.cycles vm - t0 in
  let scavenges = Heap.scavenge_count vm.Vm.heap in
  let cm = config.Config.cost in
  let imbalance =
    if vm.Vm.par_scavenges = 0 then 1.0
    else begin
      let k = min scavenge_workers processors in
      let busy = Array.sub vm.Vm.par_busy_cycles 0 k in
      let total = Array.fold_left ( + ) 0 busy in
      if total = 0 then 1.0
      else
        let mean = float_of_int total /. float_of_int k in
        float_of_int (Array.fold_left max 0 busy) /. mean
    end
  in
  { eden_kb;
    allocators;
    scavenge_workers;
    scavenges;
    interval_s =
      (if scavenges = 0 then infinity
       else Cost_model.seconds cm (cycles / scavenges));
    gc_share = float_of_int vm.Vm.scavenge_cycles /. float_of_int cycles;
    total_s = Cost_model.seconds cm cycles;
    mean_pause_ms =
      (if vm.Vm.scavenge_pauses = 0 then 0.0
       else
         1000.0
         *. Cost_model.seconds cm
              (vm.Vm.scavenge_cycles / vm.Vm.scavenge_pauses));
    coord_share =
      (if vm.Vm.scavenge_cycles = 0 then 0.0
       else
         float_of_int vm.Vm.par_coord_cycles
         /. float_of_int vm.Vm.scavenge_cycles);
    imbalance }

(* E8: eden size sweep with one allocator. *)
let eden_sweep ?(iterations = 30_000) () =
  List.map
    (fun eden_kb ->
      run_one ~eden_kb ~allocators:1 ~scavenge_workers:1 ~iterations ())
    [ 40; 80; 160; 320 ]

(* E8b: k allocating processes, eden scaled as k*s keeps the interval. *)
let scaling_sweep ?(iterations = 30_000) () =
  List.map
    (fun k ->
      run_one ~eden_kb:(80 * k) ~allocators:k ~scavenge_workers:1 ~iterations
        ())
    [ 1; 2; 4 ]

(* E10: parallel scavenging with 4 busy allocators.  With [sanitize] on,
   every parallel collection also runs the claim/chunk invariant checks and
   a full heap verification (fatal under Strict). *)
let parallel_scavenge_sweep ?sanitize ?(iterations = 30_000) () =
  List.map
    (fun workers ->
      run_one ?sanitize ~eden_kb:80 ~allocators:4 ~scavenge_workers:workers
        ~iterations ())
    [ 1; 2; 3; 5 ]

(* ============ pause distribution (E18) ============

   The incremental collector's claim is about the *tail*: old-space
   reclamation arrives as bounded slices instead of one long
   stop-the-world mark-sweep, so the pause distribution — not the mean —
   is the measure.  One aggressive-GC churn run yields both populations:
   every scavenge pause and every major slice, summarized as
   percentiles against the slice budget. *)

type pause_row = {
  pause_label : string;
  pauses : int;
  p50_ms : float;
  p95_ms : float;
  max_ms : float;
  budget_ms : float;  (** 0 for populations without a budget (scavenges) *)
  budget_overruns : int;  (** slices that ran past the budget *)
}

let distribution cm ~label ~budget ~overruns costs =
  let arr = Array.of_list costs in
  Array.sort compare arr;
  let ms c = 1000.0 *. Cost_model.seconds cm c in
  { pause_label = label;
    pauses = Array.length arr;
    p50_ms = ms (Report.percentile arr 50);
    p95_ms = ms (Report.percentile arr 95);
    max_ms = ms (if Array.length arr = 0 then 0 else arr.(Array.length arr - 1));
    budget_ms = ms budget;
    budget_overruns = overruns }

(* E18: scavenge pauses and major slices from one aggressive-GC churn run
   (one-scavenge tenure age, tiny eden, the collector on), so most of the
   churn tenures and then dies in old space. *)
let pause_study ?(iterations = 30_000) () =
  let config =
    { (Config.ms ~processors:4 ()) with
      Config.eden_words = 2048;
      survivor_words = 1024;
      tenure_age = 1;
      old_words = 256 * 1024;
      major_enabled = true }
  in
  let vm = Vm.create config in
  Vm.load_classes vm churn_classes;
  (match
     Vm.run ~watch:(Vm.spawn vm (Printf.sprintf "GcChurn new churn: %d" iterations)) vm
   with
   | Vm.Finished _ -> ()
   | Vm.Deadlock | Vm.Cycle_limit -> failwith "gc pause study run failed");
  let cm = config.Config.cost in
  let mj =
    match vm.Vm.major with
    | Some mj -> mj
    | None -> failwith "gc pause study: collector not configured"
  in
  let rows =
    [ distribution cm ~label:"scavenge pause" ~budget:0 ~overruns:0
        vm.Vm.scavenge_pause_costs;
      distribution cm ~label:"major slice" ~budget:(Major.budget mj)
        ~overruns:(Major.overruns mj) (Major.slice_costs mj) ]
  in
  (rows, Instrumentation.gather_major vm mj)

let print_pause_rows fmt ~label rows =
  Format.fprintf fmt "%s@." label;
  Format.fprintf fmt
    "  population      count  p50(ms)  p95(ms)  max(ms)  budget(ms)  overruns@.";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "  %-14s  %5d  %7.3f  %7.3f  %7.3f  %10.3f  %8d@."
        r.pause_label r.pauses r.p50_ms r.p95_ms r.max_ms r.budget_ms
        r.budget_overruns)
    rows

let print_rows fmt ~label rows =
  Format.fprintf fmt "%s@." label;
  Format.fprintf fmt
    "  eden(KB)  allocators  gc-workers  scavenges  interval(s)  gc-share  \
     total(s)  pause(ms)  coord%%  imbalance@.";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "  %7d  %9d  %9d  %9d  %10.3f  %7.1f%%  %8.2f  %9.2f  %5.1f%%  %9.2f@."
        r.eden_kb r.allocators r.scavenge_workers r.scavenges r.interval_s
        (100.0 *. r.gc_share) r.total_s r.mean_pause_ms
        (100.0 *. r.coord_share) r.imbalance)
    rows
