(* The engine's heap of runnable virtual processors: one int array in
   binary min-heap order.  Keys are [(clock lsl bits) lor id], so the
   heap needs no value or sequence arrays, no write barrier on a sift and
   no division to recover the id.  Both sifts move a hole instead of
   swapping, one write per level. *)

type t = {
  keys : int array;
  mutable len : int;
  bits : int;
}

let create ~processors =
  if processors < 1 then invalid_arg "Pending.create: no processors";
  let rec bits b = if 1 lsl b >= processors then b else bits (b + 1) in
  { keys = Array.make processors 0; len = 0; bits = bits 0 }

let key t ~clock ~id = (clock lsl t.bits) lor id
let id_of t k = k land ((1 lsl t.bits) - 1)

let length t = t.len
let is_empty t = t.len = 0

(* Move the hole at [i] up past every parent above [k], then fill it. *)
let rec sift_up (keys : int array) i k =
  let parent = (i - 1) / 2 in
  if i > 0 && k < keys.(parent) then begin
    keys.(i) <- keys.(parent);
    sift_up keys parent k
  end
  else keys.(i) <- k

(* Move the hole at [i] down past every child below [k], then fill it. *)
let rec sift_down (keys : int array) len i k =
  let l = (2 * i) + 1 in
  let c = if l + 1 < len && keys.(l + 1) < keys.(l) then l + 1 else l in
  if c < len && keys.(c) < k then begin
    keys.(i) <- keys.(c);
    sift_down keys len c k
  end
  else keys.(i) <- k

let add t k =
  let i = t.len in
  if i = Array.length t.keys then invalid_arg "Pending.add: full";
  t.len <- i + 1;
  sift_up t.keys i k

let top t = if t.len = 0 then max_int else t.keys.(0)

let take t =
  if t.len = 0 then invalid_arg "Pending.take: empty";
  let keys = t.keys in
  let k = keys.(0) in
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then sift_down keys last 0 keys.(last);
  k

let push_pop t k =
  let keys = t.keys in
  if t.len = 0 || k < keys.(0) then k
  else begin
    let m = keys.(0) in
    sift_down keys t.len 0 k;
    m
  end
