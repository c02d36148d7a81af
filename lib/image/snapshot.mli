(** Image snapshot/restore (E19).

    A checkpoint captures the object memory's used prefixes (old space,
    eden and its slices, both survivor semispaces), the entry table, the
    old-space free lists and the allocation counters, plus caller-labeled
    "register" arrays for host-side scalars the heap does not own.  It is
    a delta against the kernel image ({!Bootstrap.image_words}): each
    used prefix is kept as the runs of words that differ from the image
    word at the same address.
    Restore overwrites the memory of a target VM {e booted from the same
    image} with the same heap geometry: whatever the target has run, its
    used prefixes become the image's words overwritten by the runs.  The
    image puts every kernel object at the same address, so host-side name
    tables remain valid; host-side
    caches pointing into the old memory (method caches, free-context
    lists, decoded contexts) are the caller's to flush, exactly as after
    an injected processor crash.

    The durable format is a self-describing header line
    ["MST-SNAP v2 fp=... entries=... len=... sum=... image=..."] followed
    by a checksummed marshalled payload; [image] is the digest
    ({!Bootstrap.image_digest}) of the image the runs are a delta
    against.  Truncation, bit-rot, version skew, a foreign image and
    header/payload disagreement all raise the structured {!Corrupt}
    before any state is touched. *)

(** A checkpoint file that cannot be used: empty, truncated, wrong
    version, taken against another kernel image, damaged or
    unparseable.  The CLI reports it and exits 2;
    the replica manager falls back to the previous checkpoint. *)
exception Corrupt of { path : string; what : string }

(** A restore target that cannot receive the image: different heap
    geometry or slice count, or a region whose bump pointer lies outside
    it or whose runs are malformed or leave a word uncovered — a
    configuration or writer bug, not a damaged file. *)
exception Mismatch of string

(** One heap region's image. *)
type region_image = {
  r_base : int;
  r_limit : int;
  r_ptr : int;
  r_runs : (int * int array) list;
      (** the maximal runs of the used prefix [[r_base, r_ptr)] whose
          words differ from the image word at the same address, as
          (first address, words), ascending.  An address outside the
          image always differs. *)
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

(** Overwrite the target heap with the image and return the registers:
    each used prefix gets the kernel image's words, then the runs.
    Old-space words a lower bump pointer abandons are zeroed, as
    {!Heap.release} requires.  Every region is checked before anything
    is written.
    @raise Mismatch when the geometry differs, when a region's bump
    pointer lies outside [[r_base, r_limit]], or when its runs are empty,
    out of order, overlapping, outside [[r_base, r_ptr)] or leave a word
    past the image's end uncovered. *)
val restore : t -> Heap.t -> registers

val save : string -> t -> unit

val load : string -> t
