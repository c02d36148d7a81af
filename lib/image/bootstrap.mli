(** Bootstrapping the virtual image.

    Ties the metacircular knot: bare class objects for the VM-known
    classes are allocated first, [Class] is made an instance of itself,
    nil/true/false and the character table are instantiated, the
    ProcessorScheduler and its ready lists are built, and only then is the
    kernel compiled through the normal class builder (which recognises the
    pre-allocated classes by their global bindings).

    That compile runs once per process.  Its result, the kernel image, is
    kept read-only and every later VM boots by copying it, as Berkeley
    Smalltalk and MS start from a saved image. *)

(** Build a complete universe — kernel classes, globals, Transcript,
    Display, Processor — on the given heap by compiling the kernel from
    source.  Every call compiles; {!install} is the cached path.
    @raise Heap.Image_full when old space cannot hold the kernel. *)
val compile : Heap.t -> Universe.t

(** Build the same universe as {!compile} on a fresh heap.  The first
    call in a process compiles and keeps the image; every later call
    copies the image's old-space words and counters into [heap] and gives
    the universe its own copies of the class record, the character table
    and both name tables ([Hashtbl.copy], so they iterate in the compiled
    order).  The image does not depend on the heap's geometry, so one
    image serves every configuration.  Safe to call from several domains.
    @raise Invalid_argument when [heap] has already allocated.
    @raise Heap.Image_full when old space is smaller than the image. *)
val install : Heap.t -> Universe.t

(** The image's old-space words, from the old-space base up to the
    image's bump pointer: every VM's old space starts with them.  Builds
    the image on first use, on a heap of its own when no {!install} has
    run yet.  The array is the image itself and must not be written.  Safe to call from several domains. *)
val image_words : unit -> int array

(** The FNV-1a digest of {!image_words}, computed once when the image is
    built: a checkpoint names the image it is a delta against by it. *)
val image_digest : unit -> int
