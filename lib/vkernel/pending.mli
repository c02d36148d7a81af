(** The engine's heap of runnable virtual processors.

    An int-only binary min-heap.  A key packs a processor's clock and id
    into one int, [(clock lsl bits) lor id] with [bits] the bits needed
    for the largest id, so keys order by clock, ties going to the lowest
    id, and the key alone yields the id: the heap stores no values.  A
    processor has at most one entry, so keys are unique and any correct
    heap pops them in the same order.  Nothing here allocates after
    [create]. *)

type t

(** An empty heap with room for one entry per processor.  Raises
    [Invalid_argument] when [processors < 1]. *)
val create : processors:int -> t

(** The key of processor [id] at [clock]; [clock >= 0] and
    [0 <= id < processors]. *)
val key : t -> clock:int -> id:int -> int

(** The processor id a key was made from. *)
val id_of : t -> int -> int

val length : t -> int
val is_empty : t -> bool

(** Insert a key; O(log n).  Raises [Invalid_argument] when the heap
    already holds [processors] entries. *)
val add : t -> int -> unit

(** The smallest key, or [max_int] when empty. *)
val top : t -> int

(** Remove and return the smallest key.  Raises [Invalid_argument] when
    empty. *)
val take : t -> int

(** [push_pop t k] is [add t k] followed by [take t], in one sift-down at
    most: it answers [k] itself, leaving the heap untouched, when [k] is
    below the top or the heap is empty. *)
val push_pop : t -> int -> int
