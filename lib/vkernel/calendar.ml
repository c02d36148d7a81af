(* A stable binary min-heap keyed by an integer deadline, shared by the
   event-calendar engine: the timer list (fire cycle -> semaphore/hook)
   and the pending-heap of runnable VPs (clock -> vp id) both live in
   one of these.

   Stability matters for the timers: the old representation was a
   merge-sorted list, so two timers with the same deadline fired in
   insertion order, and semaphore wait-queues built on that order.  Each
   entry therefore carries a monotonically increasing sequence number
   and ties on [key] break toward the older entry.

   The VP pending-heap uses the heap lazily: clocks only ever increase,
   so a stale entry (key older than the VP's current clock) is detected
   at pop time and reinserted with the fresh key instead of being
   updated in place.  [add] is O(log n), [pop] amortised O(log n). *)

type 'a entry = { key : int; seq : int; v : 'a }

type 'a t = {
  mutable a : 'a entry array;   (* heap storage; a.(0) is the minimum *)
  mutable len : int;
  mutable next_seq : int;
}

let create () = { a = [||]; len = 0; next_seq = 0 }

let length t = t.len
let is_empty t = t.len = 0

(* (key, seq) lexicographic order: the heap invariant compares both. *)
let before x y = x.key < y.key || (x.key = y.key && x.seq < y.seq)

let swap t i j =
  let tmp = t.a.(i) in
  t.a.(i) <- t.a.(j);
  t.a.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.a.(i) t.a.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && before t.a.(l) t.a.(!smallest) then smallest := l;
  if r < t.len && before t.a.(r) t.a.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t =
  let cap = max 8 (2 * Array.length t.a) in
  let a = Array.make cap t.a.(0) in
  Array.blit t.a 0 a 0 t.len;
  t.a <- a

let add t ~key v =
  let e = { key; seq = t.next_seq; v } in
  t.next_seq <- t.next_seq + 1;
  if t.len >= Array.length t.a then
    if t.len = 0 then t.a <- Array.make 8 e else grow t;
  t.a.(t.len) <- e;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let min_key t = if t.len = 0 then None else Some t.a.(0).key

let peek t = if t.len = 0 then None else Some (t.a.(0).key, t.a.(0).v)

let pop t =
  if t.len = 0 then None
  else begin
    let e = t.a.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.a.(0) <- t.a.(t.len);
      sift_down t 0
    end;
    Some (e.key, e.v)
  end

(* Nondestructive sorted view — debug assertions and tests only. *)
let to_sorted_list t =
  let xs = ref [] in
  for i = 0 to t.len - 1 do
    xs := t.a.(i) :: !xs
  done;
  List.map
    (fun e -> (e.key, e.v))
    (List.sort
       (fun x y -> if before x y then -1 else if before y x then 1 else 0)
       !xs)
