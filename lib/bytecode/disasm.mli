(** Disassembler: decodes a word array back into instructions and renders
    a listing.  [literal] supplies a printable form for literal-table
    entries (selectors, constants, globals). *)

val to_string : ?literal:(int -> string) -> int array -> string
