(** Fault-injection campaigns over the macro benchmarks.

    Each seeded run drives one reduced macro benchmark in the busy
    system state (five processors, four busy background Processes) with
    the strict sanitizer armed, the spin watchdog on and a seeded fault
    injector installed.  Each run is an {!Explorer.run_faults} execution
    judged by {!Explorer.check} against a fault-free reference on the
    identical configuration.  Survival means the benchmark still
    computed the right answer, transcript and stable-root census; the
    overhead column is what the recovery cost in virtual time. *)

type verdict =
  | Survived of int
      (** correct result; recovery overhead in permil of the reference *)
  | Deadlock_detected of Fault.deadlock_report
      (** the spin watchdog ended the run with a structured report *)
  | Failed of string
      (** the oracle's description: a divergence, sanitizer violation or
          fatal error — a recovery bug, never acceptable *)

type row = {
  seed : int;
  bench_key : string;
  plan : Fault.plan;  (** the faults actually honoured *)
  verdict : verdict;
}

type summary = {
  campaign : Fault.campaign;
  watchdog_quanta : int;
  rows : row list;
  survived : int;
  deadlocks : int;
  failed : int;
  faults_injected : int;
  mean_overhead_permil : int;  (** across survived rows *)
}

val describe_verdict : verdict -> string

(** Run one campaign: [seeds] seeded runs starting at [first_seed],
    cycling through [bench_keys] (reduced-repetition benchmarks; [quick]
    reduces further for smoke tests).  The watchdog and backoff default
    to {!Explorer.default_watchdog} and {!Explorer.default_backoff}.
    [log] receives one line per row. *)
val run_campaign :
  ?campaign:Fault.campaign ->
  ?seeds:int ->
  ?first_seed:int ->
  ?quick:bool ->
  ?bench_keys:string list ->
  ?watchdog_quanta:int ->
  ?backoff_quanta:int ->
  ?log:(string -> unit) ->
  unit ->
  summary

val print : Format.formatter -> summary -> unit

(** {2 The replica campaign (E19)}

    Crash-and-rejoin scenarios over the replicated image cluster
    ({!Replica}): each seeded run injects replica crashes aimed at the
    recovery path itself — a checkpoint torn by the crash, a second
    crash in the middle of replay, a double crash of the same replica —
    and the oracle is the cluster's own divergence detector: every run
    must converge to the non-replicated reference fingerprint. *)

type replica_row = {
  r_seed : int;
  r_scenario : string;
  r_outcome : Replica.outcome;
  r_correct : bool;
}

type replica_summary = {
  r_rows : replica_row list;
  r_correct_rows : int;
  r_incorrect : int;  (** must be 0: divergence or non-convergence *)
  r_crashes : int;
  r_rejoins : int;
  r_fallbacks : int;
}

val run_replica_campaign :
  ?seeds:int ->
  ?first_seed:int ->
  ?quick:bool ->
  ?log:(string -> unit) ->
  unit ->
  replica_summary

val print_replica : Format.formatter -> replica_summary -> unit
