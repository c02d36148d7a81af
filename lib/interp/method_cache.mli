(** The method-lookup cache.

    More than 10 % of bytecodes need a method lookup, so Smalltalk
    implementations lean on software lookup caches.  MS first serialized
    one shared cache behind a two-level lock, found the contention made
    the system "much too slow", and replicated the cache per processor
    instead (paper, section 3.2).  Both variants are provided; caches are
    flushed at every scavenge and whenever a method is (re)installed, and
    a flushed table is cleared at its next probe or fill. *)

type mode =
  | Replicated
  | Shared_locked of Spinlock.t

type table

type t = {
  mode : mode;
  table : table;
  owner : int;  (** owning vp when replicated; -1 = shared *)
  sanitizer : Sanitizer.t;
  san_id : Sanitizer.id;  (** the cache's resource id in [sanitizer] *)
  mutable hits : int;
  mutable misses : int;
  mutable finish : int;  (** completion time of the last {!probe} *)
}

val make_table : unit -> table

(** A private per-processor cache; [sanitizer] flags any probe or fill
    from a vp other than [owner].  Its "method cache" name is registered
    with [sanitizer] now. *)
val create_replicated : owner:int -> sanitizer:Sanitizer.t -> t

(** A view of the one shared cache: all interpreters pass [table] and
    [lock]; each keeps its own statistics.  [sanitizer] is the VM's, as
    for {!create_replicated}; the lock checks the sections. *)
val create_shared : sanitizer:Sanitizer.t -> lock:Spinlock.t -> table:table -> t

(** Mark the table stale: its next probe or fill clears it first, so
    every lookup result and counter is what an immediate clear would
    give.  Flushes are never owner-checked: the scavenger and the
    method-install broadcast flush every cache cross-processor by
    design. *)
val flush : t -> unit

(** [probe ~vp t ~now ~sel ~cls] looks up the (selector, behaviour)
    pair.  It answers the cached method, or [Oop.sentinel] on a miss, and
    leaves the completion time (lock time included for the shared
    variant) for {!finish}; it allocates nothing.  [vp] is the probing
    processor, checked against a replicated cache's owner; engine-side
    callers pass -1. *)
val probe : vp:int -> t -> now:int -> sel:Oop.t -> cls:Oop.t -> Oop.t

(** The completion time of the last {!probe}. *)
val finish : t -> int

(** [fill ~vp t ~now ~sel ~cls ~meth] caches [meth] and answers the
    completion time. *)
val fill : vp:int -> t -> now:int -> sel:Oop.t -> cls:Oop.t -> meth:Oop.t -> int

val hits : t -> int

val misses : t -> int
