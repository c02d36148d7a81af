(** Reading CompiledMethod heap objects back into compiler-level values:
    the adapter between the interpreter's decompile/browse primitives and
    the decompiler. *)

val bytecode_array : Universe.t -> Oop.t -> Opcode.t array

val literal_count : Universe.t -> Oop.t -> int

(** Decompile a CompiledMethod back to source text.
    @raise Decompiler.Unsupported on bytecode the generator never emits. *)
val decompile : Universe.t -> Oop.t -> string

(** Disassembly listing with resolved literal names. *)
val disassemble : Universe.t -> Oop.t -> string
