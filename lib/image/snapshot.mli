(** Image snapshot/restore (E19).

    A checkpoint captures the object memory's used prefixes (old space,
    eden and its slices, both survivor semispaces), the entry table, the
    old-space free lists and the allocation counters, plus caller-labeled
    "register" arrays for host-side scalars the heap does not own.
    Restore overwrites the memory of an {e identically-bootstrapped}
    skeleton VM — the deterministic bootstrap puts every kernel object at
    the same address, so host-side name tables remain valid; host-side
    caches pointing into the old memory (method caches, free-context
    lists, decoded contexts) are the caller's to flush, exactly as after
    an injected processor crash.

    The durable format is a self-describing header line
    ["MST-SNAP v1 fp=... entries=... len=... sum=..."] followed by a
    checksummed marshalled payload.  Truncation, bit-rot, version skew
    and header/payload disagreement all raise the structured {!Corrupt}
    before any state is touched. *)

(** A checkpoint file that cannot be used: empty, truncated, wrong
    version, damaged or unparseable.  The CLI reports it and exits 2;
    the replica manager falls back to the previous checkpoint. *)
exception Corrupt of { path : string; what : string }

(** A restore target that cannot receive the image: different heap
    geometry or slice count, or a region whose bump pointer disagrees
    with its words or lies past its limit — a configuration or writer
    bug, not a damaged file. *)
exception Mismatch of string

(** One heap region's image. *)
type region_image = {
  r_base : int;
  r_limit : int;
  r_ptr : int;
  r_words : int array;  (** the used prefix [[r_base, r_ptr)] *)
}

type heap_image = {
  i_old : region_image;
  i_eden : region_image;
  i_eden_regions : region_image array;
  i_surv_a : region_image;
  i_surv_b : region_image;
  i_past_is_a : bool;
  i_rset : int array;
  i_free_lists : int list array;
  i_free_words : int;
  i_allocations : int;
  i_words_allocated : int;
  i_scavenge_count : int;
  i_words_copied_total : int;
  i_tenured_words_total : int;
  i_free_list_hits : int;
  i_free_reused_words : int;
}

type registers = (string * int array) list

type t = {
  fingerprint : int;  (** census fingerprint at capture *)
  entries : int;  (** log entries applied at capture *)
  heap : heap_image;
  registers : registers;
}

val capture :
  Heap.t -> fingerprint:int -> entries:int -> registers:registers -> t

(** Overwrite the target heap with the image and return the registers.
    Old-space words a lower bump pointer abandons are zeroed, as
    {!Heap.release} requires.
    @raise Mismatch when the geometry differs, or when a region's bump
    pointer is not [r_base] plus its word count or lies past [r_limit]. *)
val restore : t -> Heap.t -> registers

val save : string -> t -> unit

(** Header fields without unmarshalling the payload: enough to rank
    checkpoints by applied-entry count. *)
type header = { h_fingerprint : int; h_entries : int }

val read_header : string -> header

val load : string -> t
