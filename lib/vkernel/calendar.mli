(** A stable binary min-heap keyed by an integer deadline.

    Backs the engine's timer queue (fire cycle -> semaphore cell or
    engine hook); runnable VPs live in {!Pending}.  Entries with equal
    keys come out in insertion order, preserving the FIFO firing the old
    merge-sorted timer list gave semaphore wait-queues. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** Insert with the given key; O(log n). *)
val add : 'a t -> key:int -> 'a -> unit

(** Smallest key currently queued, or [max_int] when empty.  Allocates
    nothing: the engine's per-event form of [min_key]. *)
val top_key : 'a t -> int

(** Remove the minimum entry and return its value; allocates nothing.
    Raises [Invalid_argument] when empty. *)
val take : 'a t -> 'a

(** Smallest key currently queued, if any. *)
val min_key : 'a t -> int option

(** The minimum entry without removing it. *)
val peek : 'a t -> (int * 'a) option

(** Remove and return the minimum entry. *)
val pop : 'a t -> (int * 'a) option

(** Sorted (key, value) view without disturbing the heap — debug
    assertions and tests. *)
val to_sorted_list : 'a t -> (int * 'a) list
