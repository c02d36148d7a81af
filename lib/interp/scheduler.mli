(** The VM side of Smalltalk Process scheduling.

    Smalltalk-80 scheduling is a priority queue examined whenever a
    Semaphore is signalled or a Process primitive runs; MS serializes it
    with one lock.  The MS reorganization is reproduced: a Process made
    active is {e not} removed from the ready queue — "the ready queue
    contains all Processes which are ready to run including those
    running" — and only the interpreter knows (via the [running_on] slot)
    whether a Process is running.  [keep_running_in_queue = false]
    restores the uniprocessor BS behaviour for the ablation.

    Two representations are selectable (E16).  [Locked] is the paper's
    serialized queue: the ProcessorScheduler heap object, an Array of
    LinkedLists with Processes chained through their [next_link] slots,
    fully visible at the Smalltalk level.  [Stealing] gives each virtual
    processor a deque per priority, guarded by that processor's spinlock:
    owners push and pop at the front (LIFO), thieves validate under the
    victim's lock and take the last eligible Process (FIFO), and victim
    selection is priority-aware so the highest-priority ready Process
    still runs.  Semaphore wait lists stay serialized on the scheduler
    lock in both modes.

    Both are sets of "homes", each a list per priority under one lock:
    one home (the ProcessorScheduler under the scheduler lock) for
    [Locked], one per processor (its deques under its deque lock) for
    [Stealing].  The operations are written once over the homes; only
    {!pick} keeps a body per strategy.

    Every list operation runs inside the owning lock's critical section;
    stores that must insert their receiver into the entry table defer the
    insert and perform it under the entry-table lock right after the
    section closes (MS holds one kernel lock at a time). *)

(** Ready-queue representation: the paper's single serialized queue, or
    per-processor deques with work stealing (E16). *)
type strategy = Locked | Stealing

type t = {
  u : Universe.t;
  lock : Spinlock.t;
  entry_lock : Spinlock.t;  (** for deferred entry-table inserts *)
  op_cycles : int;  (** cost of one ready-queue operation *)
  remember_cost : int;  (** entry-table insert, under its lock *)
  keep_running_in_queue : bool;
  processors : int;
  strategy : strategy;  (** [Stealing] exactly when there are deque locks *)
  deque_locks : Spinlock.t array;
      (** per processor; empty when [Locked] *)
  deques : Oop.t array;
      (** [processors * priorities] LinkedLists; empty when [Locked] *)
  unlocked_steal : bool;
      (** debug: deque operations skip the lock bracket, for the
          sanitizer to catch *)
  running : Oop.t array;  (** per processor: process or sentinel *)
  preempt : bool array;  (** per processor: reschedule requested *)
  mutable sanitizer : Sanitizer.t option;
  mutable san_queue : Sanitizer.id;
      (** the ready queue's resource id in [sanitizer] *)
  san_deques : Sanitizer.id array;
      (** each processor's deque resource id in [sanitizer] *)
  mutable machine : Machine.t option;
      (** for live-processor wake routing *)
  mutable on_ready : (now:int -> unit) option;
      (** calendar-engine hook: ready work appeared (wake/failover) *)
  mutable next_home : int;
      (** round-robin home for engine-side wakes *)
  mutable pending_remembers : int list;
  mutable wakes : int;
  mutable picks : int;
  mutable preemptions : int;
  mutable failovers : int;
      (** processes recovered from crashed processors *)
  mutable local_picks : int;  (** picks satisfied from the own deque *)
  mutable steals : int;  (** picks satisfied from a victim deque *)
  mutable failed_steals : int;
      (** steal validations that found nothing to take *)
  mutable migrations : int;  (** stolen processes re-homed (MS mode) *)
  stolen_from : int array;  (** per victim processor *)
}

(** [create] builds a scheduler.  Given [deque_locks], one per
    processor, it is [Stealing] and allocates the per-processor deques
    in old space; without, it is [Locked].  [~unlocked_steal:true] makes
    the deque operations run outside their lock brackets — a
    deliberately broken protocol for the sanitizer to catch. *)
val create :
  ?deque_locks:Spinlock.t array ->
  ?unlocked_steal:bool ->
  u:Universe.t ->
  lock:Spinlock.t ->
  entry_lock:Spinlock.t ->
  op_cycles:int ->
  remember_cost:int ->
  keep_running_in_queue:bool ->
  processors:int ->
  unit ->
  t

val set_sanitizer : t -> Sanitizer.t -> unit

(** Attach the machine so engine-side wakes and failover can route work
    to processors that are still alive. *)
val set_machine : t -> Machine.t -> unit

(** Install (or clear) the calendar engine's ready-work hook: called
    after every wake and failover — the two events that create ready
    work — so processors parked on "nothing to run" can be unparked. *)
val set_on_ready : t -> (now:int -> unit) option -> unit

(** {2 Linked lists of Processes (LinkedList and Semaphore share layout)}

    The mutating operations take the scheduler lock, advance virtual time
    from [now] and return the completion time; [vp] is the acting
    processor (default [-1], the engine). *)

val ll_is_empty : t -> Oop.t -> bool

val ll_append : ?vp:int -> t -> now:int -> Oop.t -> Oop.t -> int

val ll_pop_first : ?vp:int -> t -> now:int -> Oop.t -> int * Oop.t option

val ll_remove : ?vp:int -> t -> now:int -> Oop.t -> Oop.t -> int

(** {2 The ready queue} *)

val ready_list : t -> int -> Oop.t

(** The [owner] processor's ready deque for [priority] ([Stealing]). *)
val deque : t -> owner:int -> priority:int -> Oop.t

val priority_of : t -> Oop.t -> int

val process_state : t -> Oop.t -> int

val set_running_on : t -> Oop.t -> int option -> unit

val running_on : t -> Oop.t -> int option

val is_in_ready_queue : t -> Oop.t -> bool

(** Flag the processor running the lowest-priority Process {e strictly}
    below the given priority for rescheduling; a priority tie never
    preempts. *)
val request_preemption : t -> priority:int -> unit

(** Make a Process ready (idempotent); may request preemption.  Returns
    the completion time of the locked operation.  Stealing: the Process
    is pushed on the waking processor's own deque (engine-side wakes
    round-robin over live processors). *)
val wake : ?vp:int -> t -> now:int -> Oop.t -> int

(** Choose the next Process for a processor: the highest-priority ready
    Process no processor is currently executing.  Stealing: the own
    deque is preferred at each priority; otherwise the candidate is
    re-validated under the victim's lock and the oldest eligible Process
    is taken. *)
val pick : t -> now:int -> vp:int -> int * Oop.t option

(** The processor's current Process stops running; [requeue] keeps it
    ready (yield, preemption) rather than removing it (wait, suspend,
    terminate). *)
val relinquish : t -> now:int -> vp:int -> requeue:bool -> Oop.t -> int

(** Move the current Process to the back of its priority list. *)
val yield : t -> now:int -> vp:int -> Oop.t -> int

(** Remove a Process from whatever ready structure holds it — the
    serialized queue, or the deque its [my_list] names, under that
    deque's lock.  No-op if it is not queued. *)
val remove_from_ready : ?vp:int -> t -> now:int -> Oop.t -> int

(** [failover t ~now ~dead proc ctx] recovers the Process that was
    running on crashed processor [dead]: the engine takes the queue
    lock, stores [ctx] back into the Process's [suspended_context] slot
    (coherent even mid-method — pc and sp write through to the heap at
    every step), detaches it from the dead processor and returns it to
    the ready set for any survivor to pick up.  A victim already chained
    into a ready list or deque is left in place — never enqueued twice —
    and a Process stranded in the dead owner's deque stays stealable.
    If the dead processor crashed {e holding} the queue lock, this
    acquire is what the spin watchdog catches.  Returns the completion
    time. *)
val failover : t -> now:int -> dead:int -> Oop.t -> Oop.t -> int

(** Number of {!failover} recoveries performed. *)
val failovers : t -> int

(** The lock the processor's periodic scheduling check touches: the
    shared scheduler lock, or (stealing) the processor's own deque
    lock. *)
val sched_check_lock : t -> vp:int -> Spinlock.t

(** Flag one specific processor for rescheduling regardless of
    priorities — the schedule explorer's forced-preemption decision. *)
val force_preempt : t -> vp:int -> unit

(** Read and clear the processor's preemption flag. *)
val take_preempt_flag : t -> int -> bool

(** Is a ready, not-running Process of {e strictly} higher priority
    available? *)
val better_ready : t -> than:int -> bool

(** {2 Work-stealing counters} *)

(** Call [f] on every stealing deque and running-table entry: both are
    referenced only from the host side, so the incremental old-space
    collector treats them as roots (E18). *)
val iter_roots : t -> (Oop.t -> unit) -> unit

val local_picks : t -> int
val steals : t -> int
val failed_steals : t -> int
val migrations : t -> int
val stolen_from : t -> int array

(** Check the scheduler invariants against an attached, armed sanitizer:
    [running] mirrors [running_on], no Process on two processors,
    [my_list] back-pointers agree with chain membership (and with the
    deque's priority band), and (under the MS reorganization) running
    Processes stay in the ready queue.  Violations are reported as
    resource "scheduler". *)
val check_invariants : t -> now:int -> vp:int -> unit
