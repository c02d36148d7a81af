(** Code generation: AST -> CompiledMethod heap objects.

    Like the Smalltalk-80 compiler, the common control-flow messages are
    inlined into jumps when their arguments are block literals:
    [ifTrue:]/[ifFalse:] (and the two-armed forms), [and:]/[or:],
    [whileTrue:]/[whileFalse:] (unary and keyword), [to:do:] and
    [to:by:do:].  Block parameters and temporaries are allocated in the
    home context's frame, Smalltalk-80 style.

    Methods, their bytecode arrays, literals and source strings are
    allocated in old space: they are permanent image objects. *)

exception Error of string

(** Parse and compile method source for [cls]. *)
val compile_method : Universe.t -> cls:Oop.t -> string -> Oop.t

(** Parse and compile an expression sequence as a [doIt] method on nil;
    the last expression's value is answered. *)
val compile_do_it : Universe.t -> string -> Oop.t
