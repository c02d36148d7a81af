(** The object memory: a flat word array divided into an old space and a
    new space (eden plus two survivor semispaces), managed by Generation
    Scavenging exactly as in Berkeley Smalltalk: allocation is a pointer
    bump in eden; survivors ping-pong between the survivor spaces and are
    tenured after [tenure_age] scavenges; old objects that may refer to
    new objects are recorded in the entry table, marked by a header flag.

    The record is transparent: the scavenger, the verifier and the
    interpreter's fast paths read it directly. *)

(** Raised by {!alloc_new} when eden cannot satisfy a request; the engine
    runs a scavenge rendezvous and retries. *)
exception Scavenge_needed

(** Old space (the image) is full: a fatal condition, as in BS. *)
exception Image_full of string

(** The paper's strategies for the new-object space: [Unlocked] is
    single-threaded baseline BS; [Shared_locked] is MS's serialized
    allocation (the lock lives at the VM layer); [Replicated_eden] is the
    per-processor allocation areas the paper proposes. *)
type alloc_policy = Unlocked | Shared_locked | Replicated_eden

type region = {
  mutable ptr : int;  (** next free word *)
  base : int;
  limit : int;
}

type scavenge_stats = {
  mutable survivor_objects : int;
  mutable survivor_words : int;
  mutable tenured_objects : int;
  mutable tenured_words : int;
  mutable remembered_scanned : int;
  mutable roots_scanned : int;
}

val empty_stats : unit -> scavenge_stats

type t = {
  mem : int array;  (** the whole object memory, addressed by word *)
  old : region;
  eden : region;
  eden_regions : region array;  (** per-processor slices when replicated *)
  policy : alloc_policy;
  new_base : int;  (** everything at/above this address is new space *)
  surv_a : region;
  surv_b : region;
  mutable past_is_a : bool;
  tenure_age : int;
  mutable nil : Oop.t;  (** fill value for fresh pointer objects *)
  mutable rset : int array;  (** the entry table: remembered addresses *)
  mutable rset_len : int;
  mutable roots : Oop.t ref list;
  mutable array_roots : Oop.t array list;
  mutable on_scavenge : (unit -> unit) list;
  mutable method_ctx_class : Oop.t;  (** so the scavenger can bound frames *)
  mutable block_ctx_class : Oop.t;
  mutable sanitizer : Sanitizer.t option;  (** attached by the VM layer *)
  mutable san_entry_table : Sanitizer.id;
      (** the entry table's resource id in [sanitizer] *)
  mutable san_allocation : Sanitizer.id;
      (** the allocation pointer's resource id in [sanitizer] *)
  free_lists : int list array;
      (** old-space holes by size: buckets 0..15 hold exact sizes 2..17
          words, bucket 16 is first-fit overflow (E18) *)
  mutable free_words : int;  (** words threaded on the free lists *)
  mutable free_list_hits : int;
  mutable free_reused_words : int;
  mutable major_dirty : (Oop.t -> unit) option;
      (** the incremental collector's write barrier, when a cycle runs *)
  mutable on_old_alloc : (int -> unit) option;
      (** allocate-black hook for objects entering old space mid-cycle *)
  mutable on_old_exhausted : (int -> bool) option;
      (** force-completes an in-flight major cycle; true if space may
          have been reclaimed and the allocation should be retried *)
  mutable allocations : int;
  mutable words_allocated : int;
  mutable scavenge_count : int;
  mutable words_copied_total : int;
  mutable tenured_words_total : int;
  mutable last_scavenge : scavenge_stats;
}

val region_used : region -> int

val region_avail : region -> int

val create :
  ?policy:alloc_policy ->
  ?processors:int ->
  ?tenure_age:int ->
  old_words:int ->
  eden_words:int ->
  survivor_words:int ->
  unit ->
  t

(** Give [h]'s word array back for reuse by a later {!create}.  Only the
    words a heap can have written are zeroed: [[0, old.ptr)] and the whole
    new space.  That is enough because old space grows by bump pointer
    alone, so every old-space word at or above [old.ptr] is still zero
    (a {!Snapshot} restore that lowers [old.ptr] zeroes what it abandons).
    The zeroed array goes into a one-slot spare, replacing any array
    already there; the next [create] whose total length matches takes it
    instead of allocating, so it starts word-for-word like a fresh heap.
    No use after release: [h], and anything still reading its memory
    (its VM, its universe), must be dropped. *)
val release : t -> unit

val set_nil : t -> Oop.t -> unit

(** Attach a serialization checker: entry-table inserts must then happen
    inside the "entry table" lock's critical section and eden allocations
    inside the allocation lock's (when those guards are registered). *)
val set_sanitizer : t -> Sanitizer.t -> unit

(** Register a cell the scavenger must treat (and update) as a root. *)
val add_root : t -> Oop.t ref -> unit

val remove_root : t -> Oop.t ref -> unit

val add_array_root : t -> Oop.t array -> unit

(** Register a hook run at the start of every scavenge (cache flushes). *)
val on_scavenge : t -> (unit -> unit) -> unit

val is_new : t -> Oop.t -> bool

val is_old : t -> Oop.t -> bool

(** {2 Headers} *)

val hdr0 : t -> int -> int

val size_words : t -> int -> int

(** Field count, excluding the two header words. *)
val slots : t -> int -> int

val class_at : t -> int -> Oop.t

val set_class : t -> int -> Oop.t -> unit

val age : t -> int -> int

val is_raw : t -> int -> bool

val is_bytes : t -> int -> bool

val is_remembered : t -> int -> bool

(** Dead padding written by the parallel scavenger when it abandons a
    partially filled worker buffer; fillers may be a single word, so
    region walkers must test this before reading a class slot. *)
val is_filler : t -> int -> bool

val class_of : t -> Oop.t -> small_int_class:Oop.t -> Oop.t

(** {2 Fields} *)

val get : t -> Oop.t -> int -> Oop.t

(** Raw store: non-pointer values, or new-space receivers. *)
val set_raw : t -> Oop.t -> int -> int -> unit

(** True when [store_ptr h o i v] would insert [o] into the entry table,
    so the caller can take the entry-table lock {e before} the store. *)
val store_would_remember : t -> Oop.t -> Oop.t -> bool

(** Pointer store with the generation-scavenging store check; true when
    the receiver was just inserted into the entry table (the caller
    charges the entry-table lock). *)
val store_ptr : t -> Oop.t -> int -> Oop.t -> bool

(** Run the incremental collector's write barrier on a stored value, if
    one is installed.  Pointer stores that bypass {!store_ptr} (scheduler
    queue surgery, free-context threading) must call this before their
    raw store (E18). *)
val major_note : t -> Oop.t -> unit

(** Insert an address into the entry table and set its flag. *)
val remember : t -> int -> unit

(** Swap-remove an address from the entry table (the incremental sweep
    purges entries of objects it frees). *)
val rset_remove : t -> int -> unit

val remembered_count : t -> int

(** {2 Allocation} *)

val eden_region : t -> int -> region

val eden_avail : t -> vp:int -> int

val eden_used : t -> int

(** Allocate in new space on processor [vp]; pointer objects are filled
    with nil, raw ones with zero.
    @raise Scavenge_needed when the region is full. *)
val alloc_new :
  t -> vp:int -> slots:int -> raw:bool -> ?bytes:bool -> cls:Oop.t -> unit -> Oop.t

(** Allocate a permanent object directly in old space: the free lists
    first, then the bump pointer, then (with the incremental collector
    enabled) a forced major-cycle completion and a retry.
    @raise Image_full when old space is exhausted even after that. *)
val alloc_old : t -> slots:int -> raw:bool -> ?bytes:bool -> cls:Oop.t -> unit -> Oop.t

(** {2 The old-space free lists (E18)} *)

(** Write a raw filler pseudo-object over [a, a+n); [n] may be 1. *)
val write_filler : t -> int -> int -> unit

(** Thread the hole [a, a+n) onto its size bucket (and write a filler
    over it); one-word scraps become fillers but are not threaded. *)
val free_add : t -> int -> int -> unit

(** Drop every threaded hole, leaving them as plain fillers; the sweep
    calls this before rebuilding the lists. *)
val free_reset : t -> unit

(** Take [total] words from the free lists (exact bucket first, then
    first-fit overflow), carving and re-threading any remainder. *)
val free_take : t -> int -> int option

(** Raw old-space allocation of [total] words: free lists, then bump
    pointer; [None] when neither can satisfy it. *)
val alloc_old_addr : t -> int -> int option

(** Run the allocate-black hook on a freshly allocated old address. *)
val mark_old_alloc : t -> int -> unit

val alloc_string_old : t -> cls:Oop.t -> string -> Oop.t

val alloc_string_new : t -> vp:int -> cls:Oop.t -> string -> Oop.t

val string_value : t -> Oop.t -> string

(** {2 Statistics} *)

(** Live old-space occupancy: words past the bump pointer minus words
    threaded on the free lists. *)
val old_used : t -> int

(** Words still allocatable in old space (bump headroom plus holes). *)
val old_avail : t -> int

val free_words : t -> int

val free_list_hits : t -> int

val free_reused_words : t -> int

val survivor_used : t -> int

val scavenge_count : t -> int

val allocations : t -> int

val words_allocated : t -> int

val words_copied_total : t -> int

val tenured_words_total : t -> int

val last_scavenge : t -> scavenge_stats
