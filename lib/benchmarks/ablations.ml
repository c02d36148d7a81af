(* Ablations of the strategy choices the paper discusses:

   E6  free-context list: serialized vs replicated ("yielded a reduction
       in the worst-case overhead from 160% to 65%")
   E7  method cache: shared two-level-locked ("much too slow") vs
       replicated per processor
   E9  allocation: serialized eden (published MS) vs per-processor eden
       regions (the improvement the paper proposes in section 4)
   E11 scheduler reorganization: running Processes removed from the ready
       queue (BS semantics) vs kept in it (MS)

   Each ablation runs a send- and allocation-heavy benchmark in the
   MS + 4 busy state under both strategies, also reporting the
   busy-over-baseline overhead so the numbers line up with the paper's
   phrasing. *)

type result = {
  label : string;
  variant_a : string;
  seconds_a : float;
  overhead_a : float;       (* vs the baseline BS run of the same benchmark *)
  variant_b : string;
  seconds_b : float;
  overhead_b : float;
}

(* A context-hungry benchmark for the free-context ablation: deep call
   chains churn contexts, the paper's bottleneck. *)
let ablation_classes = {st|
CLASS CtxChurn SUPER Object
METHODS CtxChurn
call: n
    n = 0 ifTrue: [^0].
    ^1 + (self call: n - 1)
!
churn: reps
    | total |
    total := 0.
    1 to: reps do: [:i | total := total + (self call: 24)].
    ^total
!
|st}

let bench_of_key key reps =
  { (List.find (fun (b : Macro.benchmark) -> b.Macro.key = key)
       Macro.benchmarks)
    with Macro.reps = reps }

let context_bench reps =
  { Macro.key = "context churn";
    title = "context churn (deep call chains)";
    body = "CtxChurn new churn: 400";
    reps;
    paper = [| 0.; 0.; 0.; 0. |] }

let seconds ~classes ~state ~config_tweak (b : Macro.benchmark) =
  let vm = Macro.prepare_vm ~config_tweak state in
  Vm.load_classes vm classes;
  (Macro.run_on vm b).Macro.seconds

let run_ablation ~label ~bench ~name_a ~tweak_a ~name_b ~tweak_b =
  let seconds = seconds ~classes:ablation_classes in
  let baseline = seconds ~state:Macro.Baseline ~config_tweak:(fun c -> c) bench in
  let sa = seconds ~state:Macro.Ms_busy ~config_tweak:tweak_a bench in
  let sb = seconds ~state:Macro.Ms_busy ~config_tweak:tweak_b bench in
  { label;
    variant_a = name_a;
    seconds_a = sa;
    overhead_a = (sa /. baseline) -. 1.0;
    variant_b = name_b;
    seconds_b = sb;
    overhead_b = (sb /. baseline) -. 1.0 }

(* E6 *)
let free_contexts ?(reps = 14) () =
  run_ablation ~label:"free-context list (busy state, context churn)"
    ~bench:(context_bench reps)
    ~name_a:"serialized (one locked list)"
    ~tweak_a:(fun c -> { c with Config.free_contexts = Config.Ctx_shared_locked })
    ~name_b:"replicated per processor (MS)"
    ~tweak_b:(fun c -> { c with Config.free_contexts = Config.Ctx_replicated })

(* E6b: no free list at all — every context allocated fresh *)
let no_free_contexts ?(reps = 14) () =
  run_ablation ~label:"free-context list vs none"
    ~bench:(context_bench reps)
    ~name_a:"disabled (allocate every context)"
    ~tweak_a:(fun c -> { c with Config.free_contexts = Config.Ctx_disabled })
    ~name_b:"replicated per processor (MS)"
    ~tweak_b:(fun c -> { c with Config.free_contexts = Config.Ctx_replicated })

(* E7 *)
let method_cache ?(reps = 12) () =
  run_ablation ~label:"method cache (busy state, print class definition)"
    ~bench:(bench_of_key "definition" reps)
    ~name_a:"shared, two-level locked"
    ~tweak_a:(fun c -> { c with Config.method_cache = Config.Cache_shared_locked })
    ~name_b:"replicated per processor (MS)"
    ~tweak_b:(fun c -> { c with Config.method_cache = Config.Cache_replicated })

(* E9: an allocation-bound benchmark; the paper suspects "a significant
   amount of the overhead is due to contention in storage allocation". *)
let alloc_bench reps =
  { Macro.key = "allocation churn";
    title = "allocation churn";
    body = "AllocChurn new churn: 1500";
    reps;
    paper = [| 0.; 0.; 0.; 0. |] }

let alloc_classes = {st|
CLASS AllocChurn SUPER Object
METHODS AllocChurn
churn: n
    | p |
    1 to: n do: [:i |
        p := Point x: i y: i.
        (Array new: 12) at: 1 put: p].
    ^n
!
|st}

let replicated_eden ?(reps = 12) () =
  let seconds ~state ~config_tweak =
    seconds ~classes:alloc_classes ~state ~config_tweak (alloc_bench reps)
  in
  let baseline = seconds ~state:Macro.Baseline ~config_tweak:(fun c -> c) in
  let serialized =
    seconds ~state:Macro.Ms_busy
      ~config_tweak:(fun c -> { c with Config.allocation = Config.Alloc_serialized })
  in
  let replicated =
    seconds ~state:Macro.Ms_busy
      ~config_tweak:(fun c -> { c with Config.allocation = Config.Alloc_replicated_eden })
  in
  let replicated_ks =
    (* the paper's full proposal: each processor gets its own s-sized
       allocation area, so the total new space is k*s *)
    seconds ~state:Macro.Ms_busy
      ~config_tweak:(fun c ->
        { c with
          Config.allocation = Config.Alloc_replicated_eden;
          Config.eden_words = 5 * c.Config.eden_words })
  in
  [ { label = "new-object space (busy state, allocation churn)";
      variant_a = "serialized allocation (published MS)";
      seconds_a = serialized;
      overhead_a = (serialized /. baseline) -. 1.0;
      variant_b = "replicated eden, total size s";
      seconds_b = replicated;
      overhead_b = (replicated /. baseline) -. 1.0 };
    { label = "";
      variant_a = "replicated eden, total size s";
      seconds_a = replicated;
      overhead_a = (replicated /. baseline) -. 1.0;
      variant_b = "replicated eden, k regions of size s (k*s total)";
      seconds_b = replicated_ks;
      overhead_b = (replicated_ks /. baseline) -. 1.0 } ]

(* E11 *)
let scheduler_reorganization ?(reps = 12) () =
  run_ablation ~label:"ready-queue semantics (busy state, print class definition)"
    ~bench:(bench_of_key "definition" reps)
    ~name_a:"remove running Processes (BS semantics)"
    ~tweak_a:(fun c -> { c with Config.keep_running_in_queue = false })
    ~name_b:"keep running Processes in the queue (MS)"
    ~tweak_b:(fun c -> { c with Config.keep_running_in_queue = true })

(* E16: the ready-queue representation under load.  A fork/join burst of
   many short workers hammers the scheduler: with the single locked
   queue every pick serializes on one lock, so adding processors mostly
   adds spin; per-processor deques partition the idle polling and let
   hungry processors steal, so the same burst scales. *)

type steal_row = {
  vps : int;
  locked_seconds : float;
  locked_sched_spin : int;  (** spin cycles on the global scheduler lock *)
  stealing_seconds : float;
  deque_spin : int;  (** spin cycles across every deque lock *)
  steals : int;
  migrations : int;
}

let steal_classes = {st|
CLASS StealWork SUPER Object
METHODS StealWork
spawn: k into: results done: sem
    [ | s |
      s := 0.
      1 to: 400 do: [:i | s := s + i].
      results at: k put: s.
      sem signal ] fork
!
|st}

let steal_source workers =
  Printf.sprintf
    "| results sem kit count | results := Array new: %d. sem := Semaphore \
     new. kit := StealWork new. 1 to: %d do: [:k | kit spawn: k into: \
     results done: sem]. 1 to: %d do: [:k | sem wait]. count := 0. results \
     do: [:r | r notNil ifTrue: [count := count + 1]]. count"
    workers workers workers

let steal_burst ~processors ~workers ~scheduler =
  let config =
    let c = Config.ms ~processors () in
    (* the paper's k*s proposal: keep each processor's eden slice at a
       workable size as the sweep scales past the Firefly's five *)
    { c with
      Config.scheduler;
      Config.eden_words = c.Config.eden_words * max 1 (processors / 5) }
  in
  let vm = Vm.create config in
  Vm.load_classes vm steal_classes;
  let t0 = Vm.seconds vm in
  let got = Vm.eval_to_string vm (steal_source workers) in
  if got <> string_of_int workers then
    failwith
      (Printf.sprintf "steal burst lost workers: %s of %d finished" got
         workers);
  (Vm.seconds vm -. t0, vm)

let work_stealing_sweep ?(workers = 64) ?(vps = [ 5; 8; 16; 32; 64 ]) () =
  List.map
    (fun processors ->
      let locked_seconds, locked_vm =
        steal_burst ~processors ~workers ~scheduler:Config.Sched_locked
      in
      let stealing_seconds, stealing_vm =
        steal_burst ~processors ~workers ~scheduler:Config.Sched_stealing
      in
      let sched vm = vm.Vm.shared.State.sched in
      let deque_spin =
        Array.fold_left
          (fun n l -> n + Spinlock.spin_cycles l)
          0 (sched stealing_vm).Scheduler.deque_locks
      in
      { vps = processors;
        locked_seconds;
        locked_sched_spin =
          Spinlock.spin_cycles (sched locked_vm).Scheduler.lock;
        stealing_seconds;
        deque_spin;
        steals = Scheduler.steals (sched stealing_vm);
        migrations = Scheduler.migrations (sched stealing_vm) })
    vps

let print_steal_rows fmt ~workers rows =
  Format.fprintf fmt
    "%d forked workers, locked queue vs work-stealing deques:@." workers;
  Format.fprintf fmt
    "  %4s  %10s %12s  %10s %12s  %7s %7s  %7s@." "vps" "locked s"
    "sched spin" "steal s" "deque spin" "steals" "migr" "speedup";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "  %4d  %10.3f %12d  %10.3f %12d  %7d %7d  %6.2fx@." r.vps
        r.locked_seconds r.locked_sched_spin r.stealing_seconds r.deque_spin
        r.steals r.migrations
        (r.locked_seconds /. r.stealing_seconds))
    rows

let print_result fmt r =
  Format.fprintf fmt "%s@." r.label;
  Format.fprintf fmt "  %-42s %7.2f s  (overhead %+.0f%%)@." r.variant_a
    r.seconds_a (100.0 *. r.overhead_a);
  Format.fprintf fmt "  %-42s %7.2f s  (overhead %+.0f%%)@." r.variant_b
    r.seconds_b (100.0 *. r.overhead_b);
  Format.fprintf fmt "@."
