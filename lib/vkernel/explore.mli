(** Seeded schedule exploration for the simulated Firefly.

    The engine's default schedule is one interleaving per configuration:
    the runnable processor with the smallest clock steps next, ties going
    to the lowest id.  This module perturbs that schedule at the three
    preemption points exposed by {!Machine.scheduling_policy} — min-clock
    ties, lock acquisitions, and the release of charged critical sections
    — so the serialization sanitizer and a differential oracle can audit
    many interleavings instead of one.

    A perturbed run is summarized by its {!schedule}: the sparse list of
    non-default decisions, each tagged with the index of the preemption
    point (the n-th policy query of the run) it was applied at.  Because
    the simulation is deterministic, replaying a schedule reproduces the
    run bit for bit; shrinking a failing schedule is subset minimization
    over its decisions plus value shrinking of the survivors.  The
    query stream, the shrinker and the trace files are {!Plan}'s. *)

(** One non-default decision at a preemption point. *)
type decision =
  | Tie_pick of int  (** take the k-th candidate of a min-clock tie *)
  | Lock_jitter of int  (** stall this many cycles before an acquire *)
  | Force_preempt  (** reschedule after this critical section *)

(** A sparse decision trace, strictly ascending by [index].  The empty
    schedule is the default deterministic run. *)
type schedule = decision Plan.t

type params = {
  tie_permil : int;  (** chance (‰) a min-clock tie is permuted *)
  jitter_permil : int;  (** chance (‰) an acquire is jittered *)
  preempt_permil : int;  (** chance (‰) a section forces a preemption *)
  jitter_bound : int;  (** maximum injected stall, in cycles *)
}

(** A driver is a {!Plan.stream} of preemption-point queries, which
    either generates decisions from a seed or replays a fixed schedule,
    plus the query log of a {!guided} driver. *)
type driver

(** [seeded ~seed ()] makes a generating driver.  The same seed always
    produces the same decision sequence ({!Plan.Rng} is independent of
    [Stdlib.Random]). *)
val seeded : ?params:params -> seed:int -> unit -> driver

(** [replay sched] makes a driver that applies exactly the decisions of
    [sched] at their recorded preemption points and defaults everywhere
    else.  Out-of-range tie picks are clamped to the candidate count. *)
val replay : schedule -> driver

(** What a preemption-point query was about. *)
type qkind =
  | Qtie of int array  (** min-clock tie between these vp ids *)
  | Qacquire of string  (** about to acquire this lock *)
  | Qexit of string  (** leaving this charged critical section *)

(** One entry of a guided driver's query log: the query index, what was
    asked, the acting vp and its clock at the time. *)
type qinfo = { q : int; kind : qkind; qvp : int; qnow : int }

(** [guided sched] is {!replay} plus a full query log: the driver records
    every preemption-point query it answers (not just the perturbed
    ones), which is what the systematic explorer ({!Dpor}) consumes. *)
val guided : schedule -> driver

(** The guided driver's query log, index-ascending.  Empty for seeded and
    plain replay drivers. *)
val query_log : driver -> qinfo array

(** The scheduling policy to install with {!Machine.set_policy}. *)
val policy : driver -> Machine.scheduling_policy

(** The non-default decisions the driver applied, index-ascending. *)
val recorded : driver -> schedule

(** Total preemption-point queries the driver answered. *)
val queries : driver -> int

(** A content hash of a schedule, for distinct-schedule statistics. *)
val fingerprint : schedule -> int

(** {!Plan.shrink} for decision traces: value shrinking halves jitters
    and pulls tie picks toward the default candidate. *)
val shrink :
  run:(schedule -> bool) -> ?budget:int -> schedule -> schedule * int

(** {2 Decision-trace files}

    One decision per line — [tie INDEX PICK], [jitter INDEX CYCLES],
    [preempt INDEX] — with [#] comments; the format documented in
    DESIGN.md and produced/consumed by [mst explore]. *)

val save : string -> schedule -> unit

(** Raises [Failure] on a malformed line or a repeated index. *)
val load : string -> schedule

(** {!load} for replay: additionally raises [Failure] when the file holds
    no decisions at all — an empty trace would silently replay the
    unperturbed schedule. *)
val load_replay : string -> schedule

val pp : Format.formatter -> schedule -> unit

(** {2 Systematic exploration (E20)}

    A DFS over forced decision prefixes, run-to-completion style: execute
    under a {!guided} driver, analyse the query log, backtrack to the
    deepest choice point with an unexplored alternative, re-execute.
    [Brute] enumerates every alternative at every choice point within the
    bounds; [Dpor] inserts alternatives only where the executed run shows
    a race (two acquires of one lock by different vps with nothing
    between), pruned further by sleep sets.  See DESIGN.md. *)
module Dpor : sig
  (** What one execution of the workload produced.  [obs] is the
      observable fingerprint the caller compares runs by (result +
      transcript + census); [failure] is a human-readable description
      when the run errored or diverged. *)
  type exec = {
    xlog : qinfo array;
    obs : string;
    failure : string option;
  }

  type mode = Brute | Dpor

  type stats = {
    executions : int;  (** schedules actually run *)
    distinct_obs : int;
    distinct_traces : int;  (** distinct Mazurkiewicz fingerprints *)
    races : int;  (** racing acquire pairs seen across all runs *)
    pruned : int;  (** brute-eligible alternatives never explored *)
    sleep_skips : int;  (** insertions suppressed by sleep sets *)
    bounded : int;  (** insertions refused by the flip/branch bounds *)
    exhausted : bool;  (** the bounded space was fully explored *)
  }

  type result = {
    stats : stats;
    obs_witness : (string * schedule) list;
        (** one witness schedule per distinct observable, discovery
            order *)
    failures : (schedule * string) list;
  }

  (** Per-lock acquisition-order hash of a query log: two runs that only
      interleave independent (different-lock) operations differently
      fingerprint the same. *)
  val trace_fingerprint : qinfo array -> int

  (** [systematic ~run ()] explores the schedule space of the
      deterministic workload [run], which must rebuild the world and
      execute it under [guided sched].

      [mode] selects brute-force enumeration or DPOR (default).
      [max_branch] ignores choice points past this query index;
      [max_flips] bounds the forced decisions per schedule (the
      preemption bound, default 2); [budget] caps executions (default
      256).  [defers] enables the lock-jitter lever and [preempts] the
      forced-preemption lever (both default true; the exhaustiveness
      oracle disables them for a tie-only space where brute force is
      genuinely exhaustive).  [log] receives occasional progress
      lines. *)
  val systematic :
    ?mode:mode ->
    ?max_branch:int ->
    ?max_flips:int ->
    ?budget:int ->
    ?defers:bool ->
    ?preempts:bool ->
    ?log:(string -> unit) ->
    run:(schedule -> exec) ->
    unit ->
    result
end
