(** Context (stack frame) management: allocation through the free-context
    lists, method and block activation, and returns.

    Contexts are heap objects of two standard sizes.  A method context's
    frame holds its temporaries followed by its evaluation stack; a block
    context's frame is evaluation stack only, its temporaries (including
    block parameters) living in the home context, Smalltalk-80 style. *)

(** Allocate a context, recycling from the free list when possible;
    charges the cost model (and the allocation lock on a fresh
    allocation).  May raise [Heap.Scavenge_needed]; callers must not have
    mutated state yet. *)
val alloc_context : State.t -> size:Free_contexts.size_class -> cls:Oop.t -> Oop.t

(** General-purpose new-space allocation for primitives, under the
    allocation lock. *)
val alloc_object :
  State.t -> slots:int -> raw:bool -> ?bytes:bool -> cls:Oop.t -> unit -> Oop.t

(** The method's packed info word. *)
val minfo : State.t -> Oop.t -> int

(** Activate a method for a send: the caller's stack holds the receiver
    and [nargs] arguments; they are copied into the new context's
    temporaries and popped. *)
val activate_method : State.t -> meth:Oop.t -> nargs:int -> unit

(** Create a BlockContext for a [Push_block] instruction. *)
val create_block_ctx : State.t -> startpc:int -> nargs:int -> argstart:int -> Oop.t

(** Activate a block for the value/value:... primitive; [None] when the
    argument count does not match. *)
val activate_block : State.t -> block:Oop.t -> nargs:int -> unit option

val size_class_of_ctx : State.t -> Oop.t -> Free_contexts.size_class

(** Return [value] to [target], recycling the dead context when safe;
    false when [target] is nil (the process's bottom frame returned). *)
val return_to : State.t -> from_ctx:Oop.t -> target:Oop.t -> value:Oop.t -> bool
