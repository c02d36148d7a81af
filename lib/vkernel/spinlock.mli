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
    test-and-set cost and the Delay retry quantum.  Everything else is
    fixed here, when the lock is built:

    - [sanitizer]: lock operations report their timeline to it and
      [critical] brackets open/close sanitizer sections; the lock's name
      is registered with it now.  The default is a fresh sanitizer in
      mode [Off], which records and checks nothing.
    - [machine]: lock operations consult its scheduling policy at the two
      lock-side preemption points (jitter before an acquire, an optional
      preemption request after a charged critical section) and its fault
      injector at the holder-fault point.  Without one there is no policy
      and no injector, and the lock behaves as the plain timeline.
    - [report_unlocked] (default false): a *disabled* lock still reports
      each processor-side operation's window to the sanitizer.
      Lock-free configurations that are legitimately serial (one
      processor) or partitioned (per-processor resources) must not
      report; the engine sets it when a configuration runs several
      processors with locking off, so the sanitizer can expose the
      missing mutual exclusion as overlapping timelines.
    - [watchdog] (default 0, off, the paper's behaviour): a contended
      acquire that would wait more than this many cycles raises
      {!Fault.Deadlock_suspected} naming the holder vp, the lock and the
      clock, instead of spinning forever.
    - [backoff_after] (default 0, the fixed-interval spin): the number of
      fixed-quantum retries before the retry interval starts doubling
      (exponential backoff).  Backoff never rewinds the timeline: it can
      only delay the winning probe, and the extra delay is accounted as
      {!backoff_cycles}.

    Negative [watchdog] and [backoff_after] count as 0. *)
val make :
  ?sanitizer:Sanitizer.t ->
  ?machine:Machine.t ->
  ?report_unlocked:bool ->
  ?watchdog:int ->
  ?backoff_after:int ->
  enabled:bool ->
  cost:Cost_model.t ->
  string ->
  t

val name : t -> string

val enabled : t -> bool

val sanitizer : t -> Sanitizer.t

(** The lock's id in its sanitizer. *)
val sanitizer_id : t -> Sanitizer.id

(** The machine given to {!make}, if any. *)
val machine : t -> Machine.t option

(** The machine's fault injector, if any. *)
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
    advanced).  It allocates a closure and a pair per call and takes no
    fast path: it is the reference that {!enter}/{!leave} are tested
    against, and the bracket for code off the per-event path. *)
val critical :
  ?vp:int -> t -> now:int -> op_cycles:int -> (unit -> 'a) -> int * 'a

(** {!critical} as an allocation-free bracket, for the per-event path:
    [enter t ~vp ~now ~op_cycles] opens the section, through the one
    acquire path {!locked_op} and {!critical} share, and [leave t ~vp]
    closes it and answers its completion time.  A disabled lock takes
    its unlocked window at [leave], after the body, as {!critical} does.
    A body that raises is closed with [leave_raised t ~vp] before the
    exception propagates; it does exactly what {!critical}'s handler
    does (the sanitizer section closes at the section's finish, with no
    preemption point; a disabled lock takes no window).  One bracket is
    open per lock at a time.

    The fast test: when the lock is free at [now], no scheduling policy
    and no fault injector is installed on its machine and its sanitizer
    is in mode [Off], [enter] and {!locked_op} take the lock directly
    (the uncontended acquire) and [leave] only answers the finish.  What
    they skip (the policy's jitter and preemption point, the holder-fault
    point and every sanitizer report) does nothing in that case, so every
    completion time and statistic is what the full path gives.  The
    policy and the injector are read per call: installing either
    mid-run takes effect at the next operation. *)
val enter : t -> vp:int -> now:int -> op_cycles:int -> unit

val leave : t -> vp:int -> int

val leave_raised : t -> vp:int -> unit

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
