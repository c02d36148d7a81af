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

(** A frozen census part: one walk of an old-space range that later
    censuses of the same heap reuse while the range is unchanged.  Old
    space is almost never written, so a VM's kernel image, which holds
    nearly every object a census of its stable roots counts, need not be
    walked again at every census. *)
type frozen

(** [freeze ?stop h ~lo ~hi ~roots] walks from the [roots] that lie in
    [[lo, hi)] through objects that start in that range only, without
    entering objects satisfying [stop].  It records the member bitmap,
    per-class counts with the object and word totals, the sorted
    in-range roots, the pointers that leave the members (its exits),
    and the address and value of every word the walk read: the header
    and class word of each member and every slot of each non-raw
    member.  [image] holds the words the range was built with, such as
    the kernel image every node of a cluster boots from, and must not
    change while the part is in use: a word read that still equals
    [image]'s at the same offset from [lo] is checked against [image]
    instead of being copied, so parts frozen on several heaps built from
    one image share its words.  Raises [Invalid_argument] unless
    [[lo, hi)] lies in allocated old space. *)
val freeze :
  ?stop:(Oop.t -> bool) ->
  ?image:int array ->
  Heap.t ->
  lo:int ->
  hi:int ->
  roots:Oop.t list ->
  frozen

(** [census ?frozen h ~roots] first checks that the part still holds:
    its range lies in allocated old space, the in-range [roots] are the
    ones it was frozen with and every word it recorded is unchanged.  If
    so it takes the members' counts as recorded, treats the members as
    visited, and walks on from the exits and [roots]; if not it walks
    the whole graph as without a part.  The result is the same either
    way, provided [stop] answers for the members as the [stop] the part
    was frozen under did (one that decides by the object's class word,
    as the schedule explorer's fence does, qualifies).  A part belongs
    to the heap it was frozen on, and to one domain: a census keeps its
    visited bitmap in the part for the next census to reuse. *)
val census :
  ?stop:(Oop.t -> bool) ->
  ?class_key:(Oop.t -> int) ->
  ?frozen:frozen ->
  Heap.t ->
  roots:Oop.t list ->
  census

(** Whether {!census} of [h] from [roots] would take the frozen part: its
    range lies in allocated old space, the in-range [roots] are the ones
    it was frozen with and every word it recorded is unchanged. *)
val holds : frozen -> Heap.t -> roots:Oop.t list -> bool

val pp_census : Format.formatter -> census -> unit

(** One comparable word per census (FNV-1a over totals and the sorted
    per-class table): the replica fingerprint E19 stores in checkpoint
    headers and divergence reports. *)
val fingerprint : census -> int
