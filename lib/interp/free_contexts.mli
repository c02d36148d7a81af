(** The free-context list.

    BS keeps a list of unused stack frames because reusing one beats
    allocating and initialising a new one.  Profiling an early MS showed
    that serializing this list was a bottleneck; replicating it per
    processor reduced the worst-case overhead from 160 % to 65 % (paper,
    section 3.2).  Contexts come in two standard sizes and are chained
    through their sender slots; the lists are flushed at every scavenge. *)

type lists

type t

type size_class = Small | Large

val empty_lists : unit -> lists

(** [owner] is the vp the replicated list belongs to ([sanitizer] flags
    any other toucher; the "free contexts" name is registered with it
    now); [entry_lock]/[remember_cost] serialize the entry-table insert
    when a tenured context links to new space. *)
val create_replicated :
  owner:int -> entry_lock:Spinlock.t -> remember_cost:int ->
  sanitizer:Sanitizer.t -> t

(** The shared list [lists] behind [lock]; [sanitizer] checks each
    mutation against the lock's sections under the "free context list"
    name, registered now.  [skip_bracket] is fault injection for the
    schedule explorer's self-check: take/give mutate the shared list
    without entering the lock's critical section, so an armed sanitizer
    flags every operation.  Never set in a legitimate configuration. *)
val create_shared :
  entry_lock:Spinlock.t -> remember_cost:int -> sanitizer:Sanitizer.t ->
  skip_bracket:bool -> lock:Spinlock.t -> lists:lists -> t

(** No recycling: [sanitizer] is held but never consulted. *)
val create_disabled : sanitizer:Sanitizer.t -> t

(** The sanitizer given at construction. *)
val sanitizer : t -> Sanitizer.t

val flush : t -> unit

(** [take ~vp t heap ~now size] pops a recycled context of [size],
    charging lock time for the shared variant.  Answers the context
    ([Oop.sentinel] when the list is empty) and leaves the completion
    time for {!finish}.  [vp] is the acting processor, checked against a
    replicated list's owner; engine-side callers pass -1. *)
val take : vp:int -> t -> Heap.t -> now:int -> size_class -> Oop.t

(** The completion time of the last {!take}. *)
val finish : t -> int

(** [give ~vp t heap ~now size ctx] hands a dead context back for reuse
    and answers the completion time. *)
val give : vp:int -> t -> Heap.t -> now:int -> size_class -> Oop.t -> int

(** Abandon the list wholesale after a processor failure: the dead vp's
    recycled contexts are unreachable garbage the next scavenge reclaims
    by not copying them.  Counted separately from scavenge flushes. *)
val abandon : t -> unit

(** Call [f] on the list heads: tenured contexts parked here are
    referenced only from the host side, so the incremental old-space
    collector treats the heads as roots (E18). *)
val iter_roots : t -> (Oop.t -> unit) -> unit

val reuses : t -> int

val fresh_allocations : t -> int

(** Number of failure-forced {!abandon} flushes. *)
val abandons : t -> int
