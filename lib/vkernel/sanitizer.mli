(** Deterministic serialization sanitizer.

    The simulation is only faithful to the paper's Firefly if every shared
    resource is serialized through its designated spinlock timeline in
    nondecreasing virtual-time order.  This checker enforces that at
    simulation time:

    - {b Timelines:} a lock's critical sections never overlap in virtual
      time and never move backwards — each section's start is at or after
      the previous section's finish.
    - {b Guarded mutations:} every mutation of a registered guarded
      resource (entry table, heap allocation pointer, ready queue, device
      queues, shared free-context list) happens while its designated
      lock's critical-section bracket is open, on the vp that opened it.
    - {b Ownership:} replicated resources (per-processor method caches and
      free-context lists) are only touched by their owning vp.
    - {b Scheduler invariants:} checked by {!Scheduler.check_invariants}
      after every wake/pick/yield/relinquish, reported through
      {!report_violation}.

    In [Strict] mode the first violation raises {!Violation}; in [Report]
    mode violations accumulate and surface through the instrumentation
    report.  Checks only fire while the sanitizer is {e armed} — the engine
    arms it for the duration of [Vm.run] and disarms it around the
    scavenger, so bootstrap and GC (which mutate freely by design) are not
    flagged. *)

type mode = Off | Report | Strict

exception Violation of string

type t

val create : mode -> t

val mode : t -> mode

(** [true] unless mode is [Off]. *)
val active : t -> bool

(** Arm/disarm the checker; checks are no-ops while disarmed. *)
val set_armed : t -> bool -> unit

val armed : t -> bool

(** [true] when checks should fire: active and armed. *)
val checking : t -> bool

val trace : t -> Trace.t

(** A lock or resource name, interned: its id in the trace ring.  Locks
    and guarded resources are passed to the checks below by id, so a
    check does no string hashing. *)
type id = int

(** The id of a lock or resource name, registering it on first use:
    a new lock's timeline starts at 0 with no section open, and a new
    resource is unguarded until {!register_guard}. *)
val id : t -> string -> id

(** Declare that mutations of [resource] must happen inside [lock]'s
    critical section. *)
val register_guard : t -> resource:string -> lock:string -> unit

(** Record a one-shot lock operation: check [start >= previous finish],
    advance the timeline, trace it. *)
val on_lock_op :
  t -> lock:id -> vp:int -> now:int -> start:int -> finish:int ->
  contended:bool -> unit

(** Like {!on_lock_op} but additionally opens the critical-section
    bracket for [lock] on [vp]. *)
val section_enter :
  t -> lock:id -> vp:int -> now:int -> start:int -> finish:int ->
  contended:bool -> unit

val section_exit : t -> lock:id -> vp:int -> now:int -> unit

(** [check_guarded t ~resource ~vp ~now detail a b] checks that a
    mutation of [resource] is bracketed by its guard lock's critical
    section (no-op for unguarded resources or while not checking).  The
    mutation is traced with [detail] over [a] and [b]; the detail is
    rendered into the message only on a violation. *)
val check_guarded :
  t -> resource:id -> vp:int -> now:int -> Trace.detail -> int -> int -> unit

(** Check that a replicated resource is touched only by its owner
    ([owner < 0] means shared — never flagged). *)
val check_owner : t -> resource:id -> owner:int -> vp:int -> now:int -> unit

(** Record an injected fault or a recovery action in the trace ring.
    Faults are simulation events, not violations: recorded whenever the
    sanitizer is active, armed or not, so a post-mortem dump shows the
    fault that preceded the failure it caused. *)
val fault_event : t -> vp:int -> now:int -> resource:string -> string -> unit

(** Record a successful work steal in the trace ring — a simulation
    event, not a violation, recorded whenever the sanitizer is active. *)
val steal_event : t -> vp:int -> now:int -> resource:id -> string -> unit

(** {2 The parallel-scavenge phase}

    The engine disarms the lock checker around the stop-the-world
    scavenger (it mutates without locks by design), but the parallel
    scavenger has invariants of its own: every from-space object is
    claimed by exactly one worker, allocation buffers chunk-claimed from
    the shared to/old regions are pairwise disjoint, and every copy lands
    inside a buffer owned by the copying worker.  These checks fire
    whenever the sanitizer is {e active} (mode not [Off]), armed or not. *)

(** Open a parallel-scavenge phase; resets claim and chunk tracking. *)
val scavenge_begin : t -> workers:int -> unit

(** Record a worker winning the claim on the from-space object at [addr];
    a second claim of the same address is a violation. *)
val scavenge_claim : t -> worker:int -> addr:int -> unit

(** Record an allocation buffer [base,limit) claimed by [worker]; overlap
    with any previously claimed chunk is a violation. *)
val scavenge_chunk : t -> worker:int -> base:int -> limit:int -> unit

(** Check that a copy of [words] words to [addr] lies inside a chunk owned
    by [worker]. *)
val scavenge_copy : t -> worker:int -> addr:int -> words:int -> unit

(** Close the phase and drop its tracking state. *)
val scavenge_end : t -> unit

(** {2 The incremental major-collection phase (E18)}

    Like the scavenge phase, these fire whenever the sanitizer is
    {e active}: the engine disarms the lock checker around each bounded
    mark/sweep slice, but the collector's own discipline is still worth
    machine-checking. *)

(** Record a cycle-level collector event (start / mark complete / cycle
    complete) in the trace ring. *)
val major_event : t -> now:int -> string -> unit

(** Record one bounded slice; a slice whose cost exceeds four times the
    configured budget is a violation (the slice loop lost track of its
    accounting). *)
val major_slice : t -> now:int -> cost:int -> budget:int -> unit

(** Count a violation: trace it, accumulate the message, raise
    {!Violation} in [Strict] mode. *)
val report_violation :
  t -> vp:int -> now:int -> resource:string -> string -> unit

val violation_count : t -> int

(** Accumulated violation messages, oldest first (capped). *)
val violations : t -> string list

val print_report : t -> unit
