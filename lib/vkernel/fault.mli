(** Seeded fault injection for the simulated multiprocessor.

    Faults — processor crashes, stalls, lock-holder failures, device
    timeouts, scavenge-worker deaths — are sampled at the same
    instrumentation points the schedule explorer drives.  An injector is
    a {!Plan.stream}, as an {!Explore} driver is: it samples from a seed
    or replays a plan, and records the honoured faults as a sparse
    replayable {!Plan}, shrunk with the same delta debugging {!Explore}
    uses for decision traces.  Fault queries are counted independently
    of policy queries, so a fault plan composes with an {!Explore}
    schedule without renumbering. *)

(** A release time no simulated clock ever reaches: the timeline
    encoding of "held by a dead processor". *)
val never : int

type fault =
  | Vp_crash  (** processor fails at its next scheduler check *)
  | Vp_stall of int  (** processor loses N cycles *)
  | Holder_stall of int  (** lock holder keeps the lock N extra cycles *)
  | Holder_crash  (** lock holder dies inside the critical section *)
  | Device_timeout of int  (** device wedges for N cycles *)
  | Worker_crash of int  (** scavenge worker dies at a barrier *)
  | Replica_crash of int
      (** whole replica dies at a log-entry boundary (E19); the index is
          resolved modulo the live replicas by the applier *)

type plan = fault Plan.t

(** Which instrumentation point is asking; each fault kind belongs to
    exactly one point.  [Log_entry] is queried once per replica at every
    wave boundary of the E19 command log. *)
type point = Sched_check | Lock_acquire | Device_op | Gc_barrier | Log_entry

type params = {
  crash_permil : int;
  stall_permil : int;
  stall_bound : int;
  holder_stall_permil : int;
  holder_stall_bound : int;
  holder_crash_permil : int;
  device_permil : int;
  device_bound : int;
  worker_crash_permil : int;
  replica_crash_permil : int;  (** per (replica, wave-boundary) query (E19) *)
  max_faults : int;  (** cap on honoured faults per run *)
}

(** All rates zero — an injector that never fires. *)
val no_faults : params

(** Which family of faults a campaign samples. *)
type campaign = Crash | Stall | Lock | Device | Gc | Mixed | Replica

val campaign_name : campaign -> string
val campaign_of_name : string -> campaign option
val params_of_campaign : campaign -> params

(** A fault injector: a {!Plan.stream} of injection queries, either
    sampling from a seed or replaying a plan.  A seeded injector stops
    sampling once [max_faults] faults were honoured. *)
type t

val seeded : ?params:params -> seed:int -> unit -> t

val replay : plan -> t

(** Answer one injection query for an instrumentation point.  Returns a
    {e candidate} fault; the caller applies it only if its local guards
    allow, and must then call {!applied} so the plan records it.
    Declined candidates never enter the plan. *)
val at : t -> point -> fault option

(** Record a fault the caller actually honoured, at the index of the
    query that produced it.  The applier notes the fault in its own
    trace ({!Sanitizer.fault_event}). *)
val applied : t -> fault -> unit

(** The honoured faults, in query order. *)
val injected : t -> plan

(** {1 Structured failure reports} *)

(** The spin watchdog's verdict: who held the lock, who gave up waiting,
    and when. *)
type deadlock_report = {
  lock : string;
  holder : int;  (** vp id, or -1 for an engine-side section *)
  waiter : int;
  clock : int;  (** the waiter's clock when it gave up *)
  held_since : int;
  waited : int;
}

exception Deadlock_suspected of deadlock_report

val describe_deadlock : deadlock_report -> string

(** A structured fatal error carrying the processor and clock, replacing
    bare [failwith]/[assert false] exits in the engine. *)
type fatal_info = { what : string; fatal_vp : int; fatal_clock : int }

exception Fatal of fatal_info

(** [fatal ~vp ~clock fmt ...] raises {!Fatal} with a formatted cause. *)
val fatal : vp:int -> clock:int -> ('a, unit, string, 'b) format4 -> 'a

val describe_fatal : fatal_info -> string

(** {1 Plan utilities} *)

(** {!Plan.shrink} for fault plans: value shrinking halves durations. *)
val shrink : run:(plan -> bool) -> ?budget:int -> plan -> plan * int

val pp : Format.formatter -> plan -> unit

(** Write/read a fault plan file ("# mst fault plan v1").  [load] raises
    [Failure] on a malformed line or a repeated index. *)
val save : string -> plan -> unit

val load : string -> plan

(** {!load} for replay: additionally raises [Failure] when the file holds
    no faults at all — an empty plan would silently run an unperturbed
    schedule. *)
val load_replay : string -> plan
