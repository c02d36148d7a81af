(* Object pointers (oops).

   Berkeley Smalltalk eliminated the object table, so an oop is a direct
   reference.  We use the classic tagged representation:

   - bit 0 set: a SmallInteger, value in the remaining bits;
   - bit 0 clear: a pointer, whose word address is [oop asr 1].

   Word address 0 is reserved and never holds an object, so the oop [0] can
   serve as an OCaml-side sentinel (it is not Smalltalk's [nil], which is an
   ordinary heap object). *)

type t = int

let sentinel : t = 0

let of_small v = (v lsl 1) lor 1
let is_small (o : t) = o land 1 = 1
let small_val (o : t) = o asr 1

let of_addr a = a lsl 1
let is_ptr (o : t) = o land 1 = 0
let addr (o : t) = o asr 1

(* Range of SmallInteger: 62 bits on a 64-bit host; overflow checks in the
   arithmetic primitives use these bounds. *)
let max_small = max_int asr 1
let min_small = min_int asr 1

let equal (a : t) (b : t) = a = b

(* Tables keyed by oops, word addresses or other ints (the census's
   class keys).  [Hashtbl.Make (Int)] hashes with [caml_hash], a C call
   per lookup, where the census looks up the class of every object it
   visits; a multiplicative hash stays in OCaml.  The product's high
   bits are its well-mixed ones. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash k = (k * 0x9E3779B97F4A7C1) lsr 32
end)
