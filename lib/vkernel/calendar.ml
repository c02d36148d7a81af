(* A stable binary min-heap keyed by an integer deadline: the engine's
   timer queue (fire cycle -> semaphore/hook).  Runnable VPs live in the
   int-only [Pending] heap instead, whose unique packed keys need no
   values, sequence numbers or stability.

   Stability matters for the timers: the old representation was a
   merge-sorted list, so two timers with the same deadline fired in
   insertion order, and semaphore wait-queues built on that order.  Each
   entry therefore carries a monotonically increasing sequence number
   and ties on [key] break toward the older entry.

   The engine reads the top on every event, so the heap is three
   parallel arrays — keys, sequence numbers, values — rather than an
   array of entry records: [add] allocates nothing once the arrays have
   grown, and [top_key] and [take] answer the engine without building
   options or tuples.  Both sifts move a hole instead of swapping, one
   write per level per array.  [add] and [take] are O(log n). *)

type 'a t = {
  mutable keys : int array;   (* heap order on (keys.(i), seqs.(i)) *)
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; len = 0; next_seq = 0 }

let length t = t.len
let is_empty t = t.len = 0

(* Double the arrays; [v] fills the new value slots, which are never read
   before being written. *)
let grow t v =
  let cap = Int.max 8 (2 * t.len) in
  let keys = Array.make cap 0 and seqs = Array.make cap 0 in
  let vals = Array.make cap v in
  Array.blit t.keys 0 keys 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.vals 0 vals 0 t.len;
  t.keys <- keys;
  t.seqs <- seqs;
  t.vals <- vals

(* Move the hole at [i] up past every parent that sorts after the new
   entry, then fill it.  A new entry has the largest sequence number, so
   it only passes parents with a strictly larger key. *)
let rec sift_up t i key seq v =
  let parent = (i - 1) / 2 in
  if i > 0 && key < t.keys.(parent) then begin
    t.keys.(i) <- t.keys.(parent);
    t.seqs.(i) <- t.seqs.(parent);
    t.vals.(i) <- t.vals.(parent);
    sift_up t parent key seq v
  end
  else begin
    t.keys.(i) <- key;
    t.seqs.(i) <- seq;
    t.vals.(i) <- v
  end

(* Move the hole at [i] down past every smaller child, then fill it with
   the entry [(key, seq, v)]. *)
let rec sift_down t i key seq v =
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < t.len
       && (t.keys.(l + 1) < t.keys.(l)
           || (t.keys.(l + 1) = t.keys.(l) && t.seqs.(l + 1) < t.seqs.(l)))
    then l + 1
    else l
  in
  if c < t.len
     && (t.keys.(c) < key || (t.keys.(c) = key && t.seqs.(c) < seq))
  then begin
    t.keys.(i) <- t.keys.(c);
    t.seqs.(i) <- t.seqs.(c);
    t.vals.(i) <- t.vals.(c);
    sift_down t c key seq v
  end
  else begin
    t.keys.(i) <- key;
    t.seqs.(i) <- seq;
    t.vals.(i) <- v
  end

let add t ~key v =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.len = Array.length t.keys then grow t v;
  let i = t.len in
  t.len <- i + 1;
  sift_up t i key seq v

let top_key t = if t.len = 0 then max_int else t.keys.(0)

let take t =
  if t.len = 0 then invalid_arg "Calendar.take: empty calendar";
  let v = t.vals.(0) in
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then sift_down t 0 t.keys.(last) t.seqs.(last) t.vals.(last);
  v

let pop t =
  if t.len = 0 then None
  else begin
    let key = t.keys.(0) in
    Some (key, take t)
  end

(* Nondestructive sorted view — debug assertions and tests only. *)
let to_sorted_list t =
  List.init t.len (fun i -> (t.keys.(i), t.seqs.(i), t.vals.(i)))
  |> List.sort (fun (k1, s1, _) (k2, s2, _) ->
         if k1 <> k2 then Int.compare k1 k2 else Int.compare s1 s2)
  |> List.map (fun (k, _, v) -> (k, v))
