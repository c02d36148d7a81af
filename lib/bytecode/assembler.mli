(** A small label-resolving assembler used by the code generator.

    Instructions are appended to a growing buffer; jumps may target labels
    placed later.  [finish] patches every jump and returns the encoded
    word array. *)

type t

type label

val create : unit -> t

val emit : t -> Opcode.t -> unit

val new_label : t -> label

(** Binds the label to the current position.
    @raise Invalid_argument if placed twice. *)
val place_label : t -> label -> unit

(** Emit a control transfer whose offset is patched at [finish].
    [`Block (nargs, arg_start)] emits a [Push_block] whose body extends to
    the label. *)
val emit_jump :
  t -> [ `Jump | `If_true | `If_false | `Block of int * int ] -> label -> unit

(** @raise Invalid_argument on unplaced labels or backward block bodies. *)
val finish : t -> int array
