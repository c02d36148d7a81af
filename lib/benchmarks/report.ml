(* Rendering the paper's tables and figures from measured results. *)

let state_paper_index = function
  | Macro.Baseline -> 0
  | Macro.Ms_uni -> 1
  | Macro.Ms_idle -> 2
  | Macro.Ms_busy -> 3

(* --- Table 2: absolute times --- *)

let print_table2 fmt results =
  Format.fprintf fmt
    "Table 2: Preliminary performance results (simulated seconds; paper's \
     numbers in parentheses)@.@.";
  Format.fprintf fmt "%-34s" "State";
  List.iter
    (fun (b, _) -> Format.fprintf fmt " %16s" b.Macro.key)
    (snd (List.hd results));
  Format.fprintf fmt "@.";
  List.iter
    (fun (state, cells) ->
      Format.fprintf fmt "%-34s" (Macro.state_name state);
      List.iter
        (fun (b, cell) ->
          Format.fprintf fmt " %8.1f (%5.1f)" cell.Macro.seconds
            b.Macro.paper.(state_paper_index state))
        cells;
      Format.fprintf fmt "@.")
    results;
  Format.fprintf fmt
    "@.All times in simulated seconds at 1 MIPS; differences of less than \
     3%% are not significant.@."

(* --- Figure 2: normalized overheads, as an ASCII bar chart --- *)

let normalized results =
  match results with
  | (Macro.Baseline, baseline_cells) :: _ ->
      List.map
        (fun (state, cells) ->
          ( state,
            List.map2
              (fun (b, base) (b', cell) ->
                assert (b.Macro.key = b'.Macro.key);
                (b, cell.Macro.seconds /. base.Macro.seconds))
              baseline_cells cells ))
        results
  | _ -> invalid_arg "normalized: results must start with the baseline"

let print_figure2 fmt results =
  let norm = normalized results in
  Format.fprintf fmt
    "Figure 2: Preliminary overhead measurements - normalized to baseline@.@.";
  List.iter
    (fun (b, _) ->
      let key = b.Macro.key in
      Format.fprintf fmt "%-14s@." key;
      List.iter
        (fun (state, cells) ->
          let ratio = List.assoc b cells in
          let paper_ratio =
            b.Macro.paper.(state_paper_index state) /. b.Macro.paper.(0)
          in
          let bar = String.make (int_of_float (ratio *. 24.0)) '#' in
          Format.fprintf fmt "  %-30s %-42s %.2f (paper %.2f)@."
            (Macro.state_name state) bar ratio paper_ratio)
        norm;
      Format.fprintf fmt "@.")
    (snd (List.hd results))

(* --- summary statistics used by the paper's prose --- *)

type overhead_summary = {
  static_worst : float;     (* MS vs baseline *)
  static_mean : float;
  idle_worst : float;       (* MS+4 idle vs baseline *)
  idle_mean : float;
  busy_worst : float;       (* MS+4 busy vs baseline *)
  busy_mean : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(min (n - 1) (p * n / 100))

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
let worst l = List.fold_left max 0.0 l

let summarize results =
  let norm = normalized results in
  let ratios state =
    match List.assoc_opt state norm with
    | Some cells -> List.map (fun (_, r) -> r -. 1.0) cells
    | None -> [ 0.0 ]
  in
  let s = ratios Macro.Ms_uni in
  let i = ratios Macro.Ms_idle in
  let b = ratios Macro.Ms_busy in
  { static_worst = worst s;
    static_mean = mean s;
    idle_worst = worst i;
    idle_mean = mean i;
    busy_worst = worst b;
    busy_mean = mean b }

let print_summary fmt results =
  let s = summarize results in
  Format.fprintf fmt "Overhead summary (vs. baseline BS):@.";
  Format.fprintf fmt
    "  MS static overhead:      worst %4.0f%%, mean %4.0f%%   (paper: < 15%% worst)@."
    (100. *. s.static_worst) (100. *. s.static_mean);
  Format.fprintf fmt
    "  MS + 4 idle Processes:   worst %4.0f%%, mean %4.0f%%   (paper: ~30%% worst)@."
    (100. *. s.idle_worst) (100. *. s.idle_mean);
  Format.fprintf fmt
    "  MS + 4 busy Processes:   worst %4.0f%%, mean %4.0f%%   (paper: ~65%% worst, ~40%% mean)@."
    (100. *. s.busy_worst) (100. *. s.busy_mean)

(* --- Tables 1 and 3 and Figure 1 are static content --- *)

let table1 = {raw|
Table 1: Process and interpreter relationships

                            Virtual image                  Interpreter
Execution process is        Smalltalk Process              lightweight process
Compiled code consists of   byte code                      machine code
Code is written in          Smalltalk                      OCaml (paper: C)
Code and data reside in     object memory                  address space
Execution is by             Smalltalk interpreter          machine processor
Execution scheduler is      Smalltalk ProcessorScheduler   V kernel (simulated)
|raw}

let table3 = {raw|
Table 3: Applications of the three strategies

Serialization        Replication       Reorganization
-------------        -----------       --------------
allocation           interpretation    active process
garbage collection   method caches
entry tables         free contexts
scheduling
I/O queues

Module map:
  allocation          lib/interp/ctx.ml (alloc lock), lib/objmem/heap.ml
  garbage collection  lib/objmem/scavenger.ml + lib/core/vm.ml (rendezvous)
  entry tables        lib/objmem/heap.ml (store_ptr) + State.store_with_check
  scheduling          lib/interp/scheduler.ml (one lock, one ready queue)
  I/O queues          lib/vkernel/devices.ml
  interpretation      lib/interp/interp.ml (one State.t per processor)
  method caches       lib/interp/method_cache.ml (Replicated)
  free contexts       lib/interp/free_contexts.ml (Replicated)
  active process      lib/interp/primitives.ml (93 thisProcess, 94 canRun:)
                      + scheduler keep_running_in_queue
|raw}

let figure1 = {raw|
Figure 1: Structure of the system (simulated Firefly)

  +-----------------------------------------------------------+
  |                  Smalltalk virtual image                   |
  |   compiler . browser tools . Processes . ProcessorScheduler|
  +============ primitive operations (protection) =============+
  |            MS virtual machine (one per processor)          |
  |  interpreter | method cache | free contexts | scheduler ops|
  |  object memory: eden | survivors | old  + entry table      |
  +============ kernel operations (protection) ================+
  |        simulated V kernel on the simulated Firefly         |
  |  spin-locks . Delay . IPC . display controller . input     |
  |  5 x microVAX (virtual processors w/ cycle clocks) . bus   |
  +-----------------------------------------------------------+
|raw}
