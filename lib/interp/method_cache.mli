(** The method-lookup cache.

    More than 10 % of bytecodes need a method lookup, so Smalltalk
    implementations lean on software lookup caches.  MS first serialized
    one shared cache behind a two-level lock, found the contention made
    the system "much too slow", and replicated the cache per processor
    instead (paper, section 3.2).  Both variants are provided; caches are
    flushed at every scavenge and whenever a method is (re)installed. *)

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

(** Flushes are never owner-checked: the scavenger and the method-install
    broadcast flush every cache cross-processor by design. *)
val flush : t -> unit

(** [probe t ~now ~sel ~cls] looks up the (selector, behaviour) pair,
    returning the completion time (lock time included for the shared
    variant) and the cached method if it hits. *)
val probe :
  ?vp:int -> t -> now:int -> sel:Oop.t -> cls:Oop.t -> int * Oop.t option

val fill :
  ?vp:int -> t -> now:int -> sel:Oop.t -> cls:Oop.t -> meth:Oop.t -> int

val hits : t -> int

val misses : t -> int
