(* The benchmark's metric catalogue: every name it prints, with unit,
   clock, direction and regression bound.  BENCHMARK.json lists the subset
   the untraced and traced runs report on every workload ([gated]
   end-to-end metrics and all per-layer ones); --smoke checks that the
   two agree.

   Simulated ([Sim]) values are deterministic: two runs of the same seed
   must agree bit for bit, so their bound is 0 and --compare reports them
   as identical or changed.  Host values carry the bound their measured
   run-to-run spread allows (README.md). *)

type clock = Sim | Host

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  clock : clock;
  better : better;
  bound : float;
  workloads : string list;  (** where it is measured; [] for every workload *)
  gated : bool;  (** listed under [end_to_end] in BENCHMARK.json *)
}

let clock_name = function Sim -> "sim" | Host -> "host"

let better_name = function Lower -> "lower" | Higher -> "higher"

let e2e ?(gated = false) ?(workloads = []) name unit_ clock better bound =
  { name; unit_; clock; better; bound; workloads; gated }

let end_to_end =
  [ e2e ~gated:true "setup_s" "s" Host Lower 0.25;
    e2e "host_wall_s" "s" Host Lower 0.25;
    e2e ~gated:true "host_wall_norm" "ratio" Host Lower 0.25;
    e2e ~gated:true "host_peak_heap_mb" "MB" Host Lower 0.10;
    e2e ~workloads:[ "table2"; "serve"; "gc-churn" ] "sim_bytecodes_per_host_s"
      "bytecodes/s" Host Higher 0.25;
    e2e ~workloads:[ "explore" ] "execs_per_host_s" "executions/s" Host Higher
      0.25;
    e2e ~workloads:[ "table2"; "serve"; "gc-churn" ] "sim_seconds" "s" Sim Lower
      0.;
    e2e ~workloads:[ "table2" ] "overhead_busy_mean_pct" "%" Sim Lower 0.;
    e2e ~workloads:[ "table2" ] "paper_error_pp" "pp" Sim Lower 0.;
    e2e ~workloads:[ "serve" ] "latency_p50_ms" "ms" Sim Lower 0.;
    e2e ~workloads:[ "serve" ] "latency_p99_ms" "ms" Sim Lower 0.;
    e2e ~workloads:[ "gc-churn" ] "gc_pause_p50_ms" "ms" Sim Lower 0.;
    e2e ~workloads:[ "gc-churn" ] "gc_pause_p99_ms" "ms" Sim Lower 0.;
    e2e ~workloads:[ "cluster" ] "availability_permil" "permil" Sim Higher 0.;
    e2e "error_rate" "ratio" Sim Lower 0. ]

let applies m workload = m.workloads = [] || List.mem workload m.workloads

let find_e2e name = List.find_opt (fun m -> m.name = name) end_to_end

(* The seven MS spinlocks, as named in [Vm.create]. *)
let lock_names =
  [ "allocation"; "entry table"; "scheduler"; "display output queue";
    "input event queue"; "method cache"; "free contexts" ]

let lock_key name = String.map (fun c -> if c = ' ' then '_' else c) name

let layers = [ "interp"; "objmem"; "vkernel"; "core"; "image"; "compiler" ]

(* (name, unit, better) for every per-layer metric, in report order. *)
let per_layer =
  let l = Lower and h = Higher in
  [ ("interp.bytecodes", "count", l);
    ("interp.sends", "count", l);
    ("interp.cache_probes", "count", l);
    ("interp.cache_hit_ratio", "ratio", h);
    ("interp.ctx_reuse_ratio", "ratio", h);
    ("interp.process_switches", "count", l);
    ("interp.gc_wait_cycles", "cycles", l);
    ("interp.host_ns_per_bytecode.jump", "ns", l);
    ("interp.host_ns_per_bytecode.send", "ns", l);
    ("interp.host_ns_per_bytecode.alloc", "ns", l);
    ("objmem.words_allocated", "words", l);
    ("objmem.words_copied", "words", l);
    ("objmem.words_tenured", "words", l);
    ("objmem.remembered", "count", l);
    ("objmem.scavenges", "count", l);
    ("objmem.scavenge_cycles", "cycles", l);
    ("objmem.scavenge_pause_p99_ms", "ms", l);
    ("objmem.major.cycles", "count", l);
    ("objmem.major.slices", "count", l);
    ("objmem.major.slice_cycles", "cycles", l);
    ("objmem.major.slice_p99_ms", "ms", l);
    ("objmem.major.overruns", "count", l);
    ("objmem.major.reclaimed_words", "words", h);
    ("objmem.major.free_list_hits", "count", h);
    ("objmem.major.barrier_greys", "count", l);
    ("objmem.host_ns_per_alloc_word", "ns", l);
    ("objmem.host_ns_per_copied_word.serial", "ns", l);
    ("objmem.host_ns_per_copied_word.k3", "ns", l);
    ("objmem.host_us_per_major_slice", "us", l);
    ("objmem.host_ms_per_census", "ms", l) ]
  @ List.concat_map
      (fun lock ->
        let k = "vkernel.lock." ^ lock_key lock in
        [ (k ^ ".acquisitions", "count", l);
          (k ^ ".contended_ratio", "ratio", l);
          (k ^ ".spin_cycles", "cycles", l) ])
      lock_names
  @ [ ("vkernel.spinlock.host_ns_per_acquire.uncontended", "ns", l);
      ("vkernel.spinlock.host_ns_per_acquire.contended", "ns", l);
      ("vkernel.calendar.host_ns_per_op", "ns", l);
      ("vkernel.sanitizer.host_overhead_ratio", "ratio", l);
      ("vkernel.explore.queries", "count", h);
      ("vkernel.explore.perturbations", "count", h);
      ("vkernel.cmdlog.host_entries_per_s.schedule", "entries/s", h);
      ("vkernel.cmdlog.host_entries_per_s.save", "entries/s", h);
      ("vkernel.cmdlog.host_entries_per_s.load", "entries/s", h);
      ("core.engine_events", "count", l);
      ("core.parks", "count", h);
      ("core.host_ns_per_event.scan", "ns", l);
      ("core.host_ns_per_event.calendar", "ns", l);
      ("core.explorer.host_ms_per_execution", "ms", l);
      ("core.replica.waves", "count", l);
      ("core.replica.rejoins", "count", h);
      ("core.replica.fallbacks", "count", l);
      ("core.replica.max_rejoin_lag", "entries", l);
      ("image.bootstrap_host_ms", "ms", l);
      ("image.snapshot.bytes", "bytes", l);
      ("image.snapshot.capture_host_ms", "ms", l);
      ("image.snapshot.save_mb_per_s", "MB/s", h);
      ("image.snapshot.load_mb_per_s", "MB/s", h);
      ("image.snapshot.restore_host_ms", "ms", l);
      ("compiler.load_classes_host_ms", "ms", l);
      ("compiler.doit_compile_host_us", "us", l) ]
  @ List.concat_map
      (fun layer ->
        [ (layer ^ ".trace.host_share_pct", "%", l);
          (layer ^ ".trace.calls", "count", l) ])
      layers

let per_layer_unit name =
  List.find_map (fun (n, u, _) -> if n = name then Some u else None) per_layer
