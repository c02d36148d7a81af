(** Heap consistency checking for the test suite and the property tests.

    Walks every allocated object and checks structural invariants:
    headers tile each space exactly; every scanned pointer field refers to
    a valid object (or is a SmallInteger); no live object is marked
    forwarded outside a scavenge; the store-check invariant (every old
    object with a new-space reference in a scanned field is remembered);
    and every remembered flag has an entry-table entry.

    Every walk here remembers addresses the way {!Major} remembers marks:
    in a [Bytes] bitmap with one bit per word that can hold an object —
    allocated old space [[old.base, old.ptr)], then the whole new space.
    The unallocated gap between them and everything past the end of
    memory have no bit.  No walk keeps a hash table of the objects it
    has seen. *)

type problem = { addr : int; what : string }

val pp_problem : Format.formatter -> problem -> unit

(** The empty list means the heap is consistent.  Object starts are
    recorded in an address bitmap and every pointer is validated against
    it.  Objects are then checked by walking the regions, so their
    problems come in address order: old space, eden, the past survivor
    space.  Eden-slice tiling problems come first and free-list problems
    last.  Also validates the old-space free lists (E18): every threaded
    hole is a filler inside allocated old space, sized for its bucket,
    threaded once, and the threaded total matches [free_words]. *)
val check : Heap.t -> problem list

(** Reachability versus the incremental collector's mark bitmap: run
    between mark completion and the first sweep slice, reports every
    old object reachable from [roots] that [marked] does not cover, in
    address order.  The empty list means the marker lost nothing (E18).
    Walks like {!census}, and refuses the same oops. *)
val check_marked :
  Heap.t -> marked:(int -> bool) -> roots:Oop.t list -> problem list

(** A census of the objects reachable from the given roots: totals plus
    per-class counts, keyed by class-oop address (classes live at stable
    old-space addresses, so the counts are comparable across runs of the
    same program).  Reachability is schedule-invariant where whole-heap
    counts are not — the schedule explorer's differential oracle compares
    censuses taken from the same stable roots.

    Traversal does not enter objects satisfying [stop] (they are neither
    counted nor scanned); callers use it to fence off runtime state that
    legitimately varies with the schedule, such as Process objects and
    their context chains.

    [class_key] overrides the per-class key: E19 compares censuses
    across snapshot/restore and independently-bootstrapped replicas,
    where a class's address is an accident of allocation order, so those
    callers key each class oop by an identity derived from its name
    instead.  [class_key] is applied once per distinct class oop, not
    once per object.

    The visited set is an address bitmap.  An oop outside allocated
    space (in the gap above [old.ptr], below old space, or past the end
    of memory) has no bit, so the walk refuses it with
    [Invalid_argument] naming its address rather than counting it.  A
    heap that {!check} accepts holds no such oop. *)
type census = {
  objects : int;
  words : int;
  per_class : (int * int) list;
}

val census :
  ?stop:(Oop.t -> bool) ->
  ?class_key:(Oop.t -> int) ->
  Heap.t ->
  roots:Oop.t list ->
  census

val pp_census : Format.formatter -> census -> unit

(** One comparable word per census (FNV-1a over totals and the sorted
    per-class table): the replica fingerprint E19 stores in checkpoint
    headers and divergence reports. *)
val fingerprint : census -> int
