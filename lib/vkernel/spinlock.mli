(** The V System spin-lock, as a deterministic contention model.

    The real lock is an interlocked test-and-set; on failure the locking
    code invokes the kernel's [Delay] with a minimal timeout and retries
    (paper, section 3.1).  Because the engine steps virtual processors in
    nondecreasing virtual-time order and every critical section in MS
    completes within one interpreter step, a lock reduces to a timeline:
    an acquire at time [now] either succeeds immediately or retries every
    delay quantum until the holder's release time.

    A disabled lock (baseline Berkeley Smalltalk is single-threaded)
    charges no synchronization cost. *)

type t

(** [make ~enabled ~cost name] creates a lock.  [cost] supplies the
    test-and-set cost and the Delay retry quantum. *)
val make : enabled:bool -> cost:Cost_model.t -> string -> t

val name : t -> string

val enabled : t -> bool

(** Attach a sanitizer: lock operations report their timeline to it and
    [critical] brackets open/close sanitizer sections.  Registers the
    lock's name with the sanitizer. *)
val attach : t -> Sanitizer.t -> unit

val sanitizer : t -> Sanitizer.t option

(** The lock's id in the attached sanitizer ([-1] before {!attach}). *)
val sanitizer_id : t -> Sanitizer.id

(** Attach the machine: lock operations consult its scheduling policy (if
    one is installed) at the two lock-side preemption points — jitter
    before an acquire, and an optional preemption request after a charged
    critical section.  Without this, or with no policy installed, the
    lock behaves exactly as before. *)
val attach_machine : t -> Machine.t -> unit

(** When set, a *disabled* lock still reports each operation's window to
    the attached sanitizer (processor-side operations only).  Off by
    default: lock-free configurations that are legitimately serial (one
    processor) or partitioned (per-processor resources) must not report.
    The engine enables it when a configuration runs several processors
    with locking off, so the sanitizer can expose the missing mutual
    exclusion as overlapping timelines. *)
val set_report_unlocked : t -> bool -> unit

(** Configure the spin watchdog.  A contended acquire that would wait
    more than [bound] cycles raises {!Fault.Deadlock_suspected} naming
    the holder vp, the lock and the clock, instead of spinning forever;
    [bound = 0] (the default) disables it.  [backoff_after] is the
    number of fixed-quantum retries before the retry interval starts
    doubling (exponential backoff); 0 keeps the fixed-interval spin.
    Backoff never rewinds the timeline: it can only delay the winning
    probe, and the extra delay is accounted as {!backoff_cycles}. *)
val set_watchdog : t -> bound:int -> backoff_after:int -> unit

(** The vp of the most recent acquirer ([-1] before any acquire). *)
val holder : t -> int

(** The attached machine's fault injector, if any. *)
val injector : t -> Fault.t option

(** [locked_op t ~now ~op_cycles] performs a critical section of
    [op_cycles] starting no earlier than [now] and returns its completion
    time.  Calls must be made in nondecreasing [now] order.  [vp] is the
    acquiring processor, for the sanitizer trace (default [-1]). *)
val locked_op : ?vp:int -> t -> now:int -> op_cycles:int -> int

(** [critical t ~now ~op_cycles f] is [locked_op] with a bracketed body:
    [f] runs inside the critical section, so guarded-resource mutations it
    performs are seen by the sanitizer as covered.  Returns the section's
    completion time and [f]'s result.  If [f] raises, the bracket is
    closed and the exception propagates (the timeline has already
    advanced). *)
val critical :
  ?vp:int -> t -> now:int -> op_cycles:int -> (unit -> 'a) -> int * 'a

(** [locked_op_on t vp ~op_cycles] is [locked_op] against a virtual
    processor's clock, updating the clock and its spin statistics. *)
val locked_op_on : t -> Machine.vp -> op_cycles:int -> unit

(** {2 Statistics} *)

val acquisitions : t -> int

(** Number of acquisitions that found the lock held. *)
val contended : t -> int

(** Total cycles spent spinning against genuine contention (in
    Delay-quantum steps).  Spin caused by injected holder faults or by
    backoff coarsening is accounted separately below, so fault campaigns
    do not pollute the contention numbers the E-series experiments
    report. *)
val spin_cycles : t -> int

(** Waiter spin attributable to an injected holder stall or crash. *)
val fault_spin_cycles : t -> int

(** Extra waiter delay from exponential backoff's coarsened probes. *)
val backoff_cycles : t -> int

(** Injected holder-stall cycles charged on this lock. *)
val fault_stall_cycles : t -> int

(** Reset the counters.  Does not touch the lock's timeline. *)
val reset_stats : t -> unit
