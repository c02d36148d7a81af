(** The simulated Firefly: virtual processors with cycle clocks.

    The engine always steps the runnable processor with the smallest
    clock, which guarantees that operations on shared resources are
    processed in nondecreasing virtual-time order — the property the
    contention models in {!Spinlock} and {!Devices} rely on.  The shared
    memory bus is a multiplicative slowdown on memory-heavy operations,
    growing with the number of processors actively executing. *)

type vp_state =
  | Running  (** executing an interpreter *)
  | Idle  (** no Smalltalk Process; polling the ready queue *)
  | Halted

type vp = {
  id : int;
  mutable clock : int;  (** this processor's virtual time, in cycles *)
  mutable state : vp_state;
  mutable steps : int;  (** bytecodes executed *)
  mutable spin_cycles : int;  (** cycles lost waiting for locks *)
  mutable gc_wait_cycles : int;  (** cycles lost to scavenge pauses *)
  mutable fault_cycles : int;  (** cycles lost to injected faults *)
}

(** A scheduling policy perturbs the engine's decisions at its preemption
    points: min-clock ties, lock acquisitions, and the release of a
    charged critical section.  The engine's default behaviour (lowest id
    wins ties, no jitter, no forced preemption) is what runs when no
    policy is installed; {!Explore} builds policies that drive the engine
    through alternative interleavings. *)
type scheduling_policy = {
  choose_tie : vp array -> vp;
      (** candidates all share the minimal clock, in ascending id order;
          must return one of them *)
  lock_jitter : vp:int -> lock:string -> now:int -> int;
      (** extra cycles to stall before an acquire; 0 leaves it alone *)
  preempt_after : vp:int -> lock:string -> now:int -> bool;
      (** request a reschedule after this charged critical section? *)
}

(** The identity policy: equivalent to having none installed. *)
val default_policy : scheduling_policy

type t

val make : processors:int -> Cost_model.t -> t

(** Install (or clear) the scheduling policy.  [None] — the default — is
    the deterministic lowest-id policy and costs nothing per step. *)
val set_policy : t -> scheduling_policy option -> unit

val policy : t -> scheduling_policy option

(** Record a policy-requested preemption for a processor; the engine
    drains it with {!take_forced_preempt} after the current step. *)
val flag_preempt : t -> int -> unit

(** Consume a pending forced preemption, returning whether one was set. *)
val take_forced_preempt : t -> int -> bool

(** Install (or clear) the fault injector; orthogonal to the scheduling
    policy.  [None] — the default — makes every injection site a no-op. *)
val set_injector : t -> Fault.t option -> unit

val injector : t -> Fault.t option

(** Flag an injected crash for a processor; the engine delivers it at
    the end of the victim's current step with {!take_crash}. *)
val flag_crash : t -> int -> unit

val crash_pending : t -> int -> bool

(** Consume the lowest-id pending crash, if any. *)
val take_crash : t -> int option

val processors : t -> int

val vp : t -> int -> vp

(** Live processors (running or idle). *)
val active_count : t -> int

(** Processors actually executing bytecodes; idle ones stay off the bus. *)
val running_count : t -> int

(** Change a processor's state, refreshing the bus multiplier.  A halted
    processor cannot be resumed: raises {!Fault.Fatal} on a transition
    out of [Halted] (failover abandons the dead vp's replicated state,
    so resurrecting it would be unsound). *)
val set_state : t -> vp -> vp_state -> unit

(** Charge CPU-local cycles. *)
val charge : t -> vp -> int -> unit

(** Charge memory-heavy cycles, inflated by bus contention. *)
val charge_mem : t -> vp -> int -> unit

(** The runnable processor with the smallest clock, if any. *)
val min_runnable : t -> vp option

val max_clock : t -> int

(** Advance every live clock to at least the given time (end of a
    stop-the-world pause); the advance is recorded as GC wait. *)
val synchronize_clocks : t -> int -> unit
