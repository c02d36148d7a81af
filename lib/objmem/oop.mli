(** Object pointers (oops).

    Berkeley Smalltalk eliminated the object table, so an oop refers to its
    object directly.  The classic tagged representation is used: bit 0 set
    marks a SmallInteger whose value occupies the remaining bits; bit 0
    clear marks a pointer whose word address is [oop asr 1]. *)

type t = int

(** The OCaml-side null: a pointer to the reserved word address 0, which
    never holds an object.  Distinct from Smalltalk's [nil], which is an
    ordinary heap object. *)
val sentinel : t

(** [of_small v] tags the integer [v] as a SmallInteger oop. *)
val of_small : int -> t

val is_small : t -> bool

(** [small_val o] untags a SmallInteger oop. *)
val small_val : t -> int

(** [of_addr a] makes a pointer oop for the word address [a]. *)
val of_addr : int -> t

val is_ptr : t -> bool

(** [addr o] is the word address of a pointer oop. *)
val addr : t -> int

(** Bounds of the SmallInteger range (62 bits on a 64-bit host); the
    arithmetic primitives fail outside them. *)
val max_small : int

val min_small : int

val equal : t -> t -> bool

(** Hash tables keyed by oops, word addresses or other ints, hashed in
    OCaml (a multiplicative hash) rather than by a [caml_hash] call per
    lookup. *)
module Tbl : Hashtbl.S with type key = t
