(** Scavenge economics (paper section 3.1).

    The scavenge interval is roughly s/r (allocation-space size over
    allocation rate): doubling s doubles the interval, and k allocating
    processors with a k*s space keep it.  The parallel-scavenge extension
    divides the copying work across workers. *)

type row = {
  eden_kb : int;
  allocators : int;
  scavenge_workers : int;
  scavenges : int;
  interval_s : float;  (** mean simulated time between scavenges *)
  gc_share : float;  (** fraction of run time spent scavenging *)
  total_s : float;
  mean_pause_ms : float;  (** mean stop-the-world pause *)
  coord_share : float;
      (** coordination cycles (claims, chunk claims, steals, barriers) as a
          fraction of all scavenge cycles; 0 for serial scavenging *)
  imbalance : float;
      (** max worker busy / mean worker busy, over all parallel
          collections; 1.0 for serial scavenging *)
}

(** E8: eden size sweep with one allocator. *)
val eden_sweep : ?iterations:int -> unit -> row list

(** E8b: k allocators with eden k*s holds the interval. *)
val scaling_sweep : ?iterations:int -> unit -> row list

(** E10: parallel scavenging with 4 busy allocators; pauses come from the
    simulated multi-worker scavenge. *)
val parallel_scavenge_sweep :
  ?sanitize:Sanitizer.mode -> ?iterations:int -> unit -> row list

val print_rows : Format.formatter -> label:string -> row list -> unit

(** One population of pauses, summarized as percentiles (E18). *)
type pause_row = {
  pause_label : string;
  pauses : int;
  p50_ms : float;
  p95_ms : float;
  max_ms : float;
  budget_ms : float;  (** 0 for populations without a budget (scavenges) *)
  budget_overruns : int;  (** slices that ran past the budget *)
}

(** E18: the pause distribution of an aggressive-GC churn run with the
    incremental collector on — every scavenge pause and every major
    slice.  The collector's claim is about the tail: old-space
    reclamation arrives as bounded slices, so p95 and max are the
    measure, not the mean.  The second component is what the collector
    did over the run, for the benchmark record. *)
val pause_study :
  ?iterations:int -> unit -> pause_row list * Instrumentation.major_stats

val print_pause_rows :
  Format.formatter -> label:string -> pause_row list -> unit
