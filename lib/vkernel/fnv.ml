(* FNV-1a content hashing: xor, then multiply, with the 32-bit offset
   basis and prime, on 63-bit ints masked non-negative.  Checkpoint
   sums, the kernel-image digest and census and replica fingerprints are
   this hash, and tests pin their values, so the arithmetic must not
   change. *)

(* the hash of nothing *)
let offset = 0x811C9DC5

(* fold one int into the running hash [h] *)
let mix h x = ((h lxor x) * 0x01000193) land max_int

let string s =
  let h = ref offset in
  for i = 0 to String.length s - 1 do
    h := mix !h (Char.code s.[i])
  done;
  !h
