(** The universe: the object memory plus the well-known objects every part
    of the VM needs — nil/true/false, the kernel classes, the interned
    symbol table, the global dictionary (name -> Association, since
    compiled global references go through the Association's value slot),
    and the ProcessorScheduler.

    Everything created through this module lives in old space: symbols,
    class structures, method literals and globals are permanent image
    objects.  Only the interpreter allocates in new space. *)

type classes = {
  mutable object_c : Oop.t;
  mutable undefined_object : Oop.t;
  mutable boolean : Oop.t;
  mutable true_c : Oop.t;
  mutable false_c : Oop.t;
  mutable small_integer : Oop.t;
  mutable character : Oop.t;
  mutable string : Oop.t;
  mutable symbol : Oop.t;
  mutable array : Oop.t;
  mutable association : Oop.t;
  mutable compiled_method : Oop.t;
  mutable method_dictionary : Oop.t;
  mutable method_context : Oop.t;
  mutable block_context : Oop.t;
  mutable process : Oop.t;
  mutable semaphore : Oop.t;
  mutable linked_list : Oop.t;
  mutable processor_scheduler : Oop.t;
  mutable class_c : Oop.t;
  mutable message : Oop.t;
  mutable float_c : Oop.t;
}

type t = {
  heap : Heap.t;
  mutable nil : Oop.t;
  mutable true_ : Oop.t;
  mutable false_ : Oop.t;
  mutable scheduler : Oop.t;  (** the ProcessorScheduler instance *)
  classes : classes;
  symtab : (string, Oop.t) Hashtbl.t;
  globals : (string, Oop.t) Hashtbl.t;  (** name -> Association *)
  mutable char_table : Oop.t array;  (** the 256 Character instances *)
}

val create : Heap.t -> t

val heap : t -> Heap.t

(** Apply [f] to every well-known object the universe holds host-side:
    nil/true/false, the scheduler, the kernel classes, interned symbols,
    global Associations and the character table.  The incremental
    old-space collector treats these as image roots (E18).

    Symbols and globals come in their tables' bucket order, and that order
    is the order the major collector greys them, so it shows in the cost
    of every mark slice.  A copy of a universe must therefore copy the
    tables with [Hashtbl.copy], which keeps the bucket layout; rebuilding
    them by insertion changes the simulated numbers. *)
val iter_roots : t -> (Oop.t -> unit) -> unit

(** {2 Symbols} *)

(** Intern a symbol, allocating it in old space on first use. *)
val intern : t -> string -> Oop.t

val symbol_name : t -> Oop.t -> string

val is_interned : t -> string -> bool

(** {2 Old-space constructors} *)

val new_string : t -> string -> Oop.t

val new_array : t -> Oop.t list -> Oop.t

val new_array_sized : t -> int -> Oop.t

(** {2 Globals} *)

(** The Association for a global, created (with a nil value) on first
    reference — what a compiled global reference pushes. *)
val global_assoc : t -> string -> Oop.t

val set_global : t -> string -> Oop.t -> unit

val get_global : t -> string -> Oop.t option

(** All global names, sorted. *)
val global_names : t -> string list

(** A global bound to a non-nil object (by convention, a class). *)
val find_class : t -> string -> Oop.t option

(** {2 Object queries} *)

val class_of : t -> Oop.t -> Oop.t

val class_name : t -> Oop.t -> string

(** {2 Floats (boxed as two raw words holding the IEEE bits)} *)

val new_float_old : t -> float -> Oop.t

(** Write a float's IEEE bits into an already-allocated 2-slot raw box —
    for callers that must allocate the box under the allocation lock. *)
val write_float : t -> Oop.t -> float -> unit

val float_value : t -> Oop.t -> float

(** {2 Characters (256 preallocated immutable instances)} *)

val char_oop : t -> char -> Oop.t

val char_value : t -> Oop.t -> char

val init_char_table : t -> unit

(** Tell the heap which classes are contexts, so the scavenger can bound
    their frames by the stack pointer. *)
val register_context_classes : t -> unit
