(** Instrumentation (the paper's section 6: "we plan to add sufficient
    instrumentation to MS to gather data about ... contention for
    resources").

    Gathers the counters every shared resource already keeps into one
    report: lock acquisitions/contention/spin time, per-interpreter
    execution statistics, cache and free-list effectiveness, storage and
    scavenging totals, and device queues. *)

type lock_row = {
  lock_name : string;
  enabled : bool;
  acquisitions : int;
  contended : int;
  spin_cycles : int;
}

type interp_row = {
  processor : int;
  steps : int;
  sends : int;
  cache_hits : int;
  cache_misses : int;
  ctx_reuses : int;
  ctx_fresh : int;
  switches : int;
  gc_wait : int;
}

(** One parallel-scavenge worker's accumulated totals, summed over every
    collection the simulated parallel scavenger ran. *)
type scavenge_worker_row = {
  worker : int;
  copied_objects : int;
  copied_words : int;
  busy_cycles : int;
  idle_cycles : int;  (** gap to the slowest worker, per collection *)
}

(** Work-stealing traffic (E16) — all zero under the locked scheduler. *)
type steal_stats = {
  stealing : bool;  (** the stealing scheduler was configured *)
  local_picks : int;  (** picks satisfied from the own deque *)
  steals : int;  (** picks satisfied from a victim deque *)
  failed_steals : int;
  migrations : int;  (** stolen processes re-homed (MS mode) *)
  stolen_from : int list;  (** per victim processor *)
}

(** Incremental old-space collection totals (E18); present in the report
    only when [Config.major_enabled]. *)
type major_stats = {
  major_cycles : int;  (** complete mark-sweep cycles *)
  major_slices : int;
  major_slice_cycles : int;  (** collector work, summed *)
  major_max_slice : int;
  major_budget : int;
  major_overruns : int;  (** slices that ran past the budget *)
  major_reclaimed_objects : int;
  major_reclaimed_words : int;
  major_forced_completions : int;
  major_forced_allocs : int;
      (** old-space allocations that survived only because exhaustion
          forced a cycle to completion *)
  major_barrier_greys : int;
  major_alloc_marks : int;
  major_free_list_hits : int;
  major_free_reused_words : int;
  major_near_exhaustion : bool;
      (** old space is over 90% occupied at report time — the structured
          warning [print] surfaces *)
}

type report = {
  locks : lock_row list;
  interps : interp_row list;
  scavenges : int;
  scavenge_cycles : int;
  par_scavenges : int;  (** collections run with [scavenge_workers > 1] *)
  par_rounds : int;
  par_coord_cycles : int;
  scavenge_workers : scavenge_worker_row list;
      (** workers that did something; empty when all scavenges were serial *)
  words_allocated : int;
  words_copied : int;
  words_tenured : int;
  remembered : int;
  display_commands : int;
  display_wait : int;
  input_polls : int;
  total_cycles : int;
  major : major_stats option;
  steal : steal_stats;
  sanitizer_mode : Sanitizer.mode;
  violation_count : int;
  violations : string list;  (** accumulated messages, oldest first *)
  crashes_delivered : int;
      (** fault recovery, all zero outside fault campaigns; the lock
          table's [spin_cycles] stays genuine contention only *)
  failovers : int;
  ctx_abandons : int;
  degraded_scavenges : int;
  vp_fault_cycles : int;  (** injected transient-stall time, summed *)
  lock_fault_spin : int;  (** waiter spin caused by holder faults *)
  lock_backoff : int;  (** extra delay from exponential backoff *)
  lock_fault_stall : int;  (** injected holder-stall time *)
  device_fault_stall : int;  (** injected device-timeout time *)
}

(** The collector's totals for [vm], whose collector is [mj]. *)
val gather_major : Vm.t -> Major.t -> major_stats

val gather : Vm.t -> report

val print : Format.formatter -> report -> unit
