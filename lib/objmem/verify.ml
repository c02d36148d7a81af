(* Heap consistency checking, used by the test suite and the property
   tests.  Walks every allocated object and checks structural invariants:

   - headers decode to plausible sizes that tile each space exactly;
   - every scanned pointer field refers to a valid object header (or is a
     SmallInteger);
   - no live object is marked forwarded outside a scavenge;
   - every old-space object with a new-space reference in a scanned field
     carries the remembered flag (the store-check invariant);
   - every remembered flag corresponds to an entry-table entry. *)

open Heap

type problem = { addr : int; what : string }

let pp_problem fmt p = Format.fprintf fmt "@@%d: %s" p.addr p.what

(* --- address bitmaps ---

   The walks below remember addresses the way {!Major} remembers marks:
   one bit per word, in a [Bytes] indexed by address, never a hash table
   of visited oops.  Only words that can hold an object get a bit: allocated old
   space [[old.base, old.ptr)] first, then the whole new space.  The
   unallocated gap between the two and everything past the end of memory
   have none, so an address there can never alias another object's bit.
   A freshly bootstrapped MS heap needs about 9 KB, growing only with
   the old space actually allocated, where a bit for every word of its
   2 M-word array would take 264 KB. *)

type bits = {
  bytes : Bytes.t;
  old_base : int;
  old_ptr : int;
  new_base : int;
  new_off : int;  (* bit of new-space address [a] is [a + new_off] *)
  top : int;
}

(* [reuse], zeroed, when it is the size [h] needs; else fresh bytes *)
let bits ?(reuse = Bytes.empty) h =
  let old_words = h.old.ptr - h.old.base in
  let top = Array.length h.mem in
  let len = (old_words + top - h.new_base + 7) / 8 in
  { bytes =
      (if Bytes.length reuse = len then begin
         Bytes.fill reuse 0 len '\000';
         reuse
       end
       else Bytes.make len '\000');
    old_base = h.old.base;
    old_ptr = h.old.ptr;
    new_base = h.new_base;
    new_off = old_words - h.new_base;
    top }

(* The bit of address [a], or -1 when [a] cannot hold an object. *)
let index b a =
  if a >= b.new_base then if a < b.top then a + b.new_off else -1
  else if a >= b.old_base && a < b.old_ptr then a - b.old_base
  else -1

let is_set b i =
  Char.code (Bytes.unsafe_get b.bytes (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b.bytes j
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get b.bytes j) lor (1 lsl (i land 7))))

(* Call [f] on every object start in address order: old space, the eden
   slice(s), then the past survivor space.  Fillers tile a region but are
   not objects; a forwarded or implausibly sized header is passed to [f]
   and ends its region's walk, since nothing after it can be parsed. *)
let iter_objects h f =
  let walk_region r =
    let a = ref r.base in
    while !a < r.ptr do
      if h.mem.(!a) <> Layout.forwarded_marker && is_filler h !a then begin
        (* dead padding from the parallel scavenger: not an object, but it
           still tiles the region; fillers may be a single word *)
        let sz = size_words h !a in
        if sz < 1 then a := r.ptr else a := !a + sz
      end
      else begin
        f !a;
        let sz = size_words h !a in
        if sz < Layout.header_words then (* corrupt; stop this region *)
          a := r.ptr
        else a := !a + sz
      end
    done
  in
  walk_region h.old;
  (match h.policy with
   | Replicated_eden -> Array.iter walk_region h.eden_regions
   | Unlocked | Shared_locked -> walk_region h.eden);
  walk_region (if h.past_is_a then h.surv_a else h.surv_b)

let check h =
  let problems = ref [] in
  let report addr what = problems := { addr; what } :: !problems in
  (* Replicated eden slices must tile eden exactly: contiguous, starting
     at the eden base, ending at the eden limit — a remainder word lost to
     flooring would silently shrink the allocatable space. *)
  (match h.policy with
   | Replicated_eden ->
       let n = Array.length h.eden_regions in
       if n = 0 then report h.eden.base "replicated eden has no slices"
       else begin
         if h.eden_regions.(0).base <> h.eden.base then
           report h.eden_regions.(0).base
             "first eden slice does not start at the eden base";
         for i = 0 to n - 2 do
           if h.eden_regions.(i).limit <> h.eden_regions.(i + 1).base then
             report h.eden_regions.(i).limit
               "eden slices do not tile (gap or overlap between slices)"
         done;
         if h.eden_regions.(n - 1).limit <> h.eden.limit then
           report h.eden_regions.(n - 1).limit
             "eden slices do not cover eden (remainder words unreachable)"
       end
   | Unlocked | Shared_locked -> ());
  let starts = bits h in
  iter_objects h (fun a -> set starts (index starts a));
  let in_rset = bits h in
  for i = 0 to h.rset_len - 1 do
    let j = index in_rset h.rset.(i) in
    if j >= 0 then set in_rset j
  done;
  let valid_ptr o =
    Oop.is_small o || Oop.equal o Oop.sentinel
    ||
    let i = index starts (Oop.addr o) in
    i >= 0 && is_set starts i
  in
  let check_object a =
    if h.mem.(a) = Layout.forwarded_marker then
      report a "forwarded object outside a scavenge"
    else begin
      let sz = size_words h a in
      if sz < Layout.header_words then report a "implausible size";
      let cls = class_at h a in
      if not (valid_ptr cls) || Oop.is_small cls then
        report a "class slot is not a valid object";
      let limit = Scavenger.scan_limit h a in
      let has_new = ref false in
      for i = 0 to limit - 1 do
        let v = h.mem.(a + Layout.header_words + i) in
        if not (valid_ptr v) then
          report a (Printf.sprintf "field %d is a dangling pointer" i);
        if is_new h v then has_new := true
      done;
      if !has_new && a < h.new_base && a >= 2 && not (is_remembered h a) then
        report a "old object with new references is not remembered";
      if is_remembered h a && not (is_set in_rset (index in_rset a)) then
        report a "remembered flag set but object absent from entry table"
    end
  in
  iter_objects h check_object;
  (* The old-space free lists (E18): every threaded hole must be a filler
     inside the allocated part of old space, of a size matching its
     bucket, and no address may be threaded twice. *)
  let threaded = Oop.Tbl.create 64 in
  let free_total = ref 0 in
  Array.iteri
    (fun b holes ->
      List.iter
        (fun a ->
          if Oop.Tbl.mem threaded a then
            report a "address threaded on the free lists twice"
          else Oop.Tbl.replace threaded a ();
          if a < h.old.base || a >= h.old.ptr then
            report a "free-list entry outside allocated old space"
          else if not (is_filler h a) then
            report a "free-list entry is not a filler"
          else begin
            let sz = size_words h a in
            free_total := !free_total + sz;
            if b < 16 && sz <> b + 2 then
              report a
                (Printf.sprintf "free-list entry of %d words in bucket %d" sz b);
            if b = 16 && sz < 18 then
              report a
                (Printf.sprintf "overflow free-list entry of only %d words" sz)
          end)
        holes)
    h.free_lists;
  if !free_total <> h.free_words then
    report h.old.base
      (Printf.sprintf "free_words is %d but the threaded holes total %d"
         h.free_words !free_total);
  List.rev !problems

(* --- frozen census parts ---

   Old space is almost never written: a VM's kernel image holds nearly
   all the objects a census of its stable roots counts, and nothing a
   workload does touches them.  A frozen part walks such a range once,
   from the roots that lie in it, through in-range objects only, and
   remembers what the walk found (its members, their per-class counts,
   the pointers that leave them) and every word the walk read to find
   it: each member's header and class word, and every slot of a
   non-raw member.  A word read that still equals the caller's [image]
   of the range (the kernel image every node boots from) is checked
   against that shared array instead of being copied, so a part costs
   a node only its spans, its bitmap and the words that differ.

   A later census on the same heap whose in-range roots are the same
   and whose recorded words are all unchanged would walk exactly the
   same members again, so it takes their counts as they are, treats
   the members as visited, and walks on from the exits.  A word that
   changed, a root that came or went, or a range no longer inside
   allocated old space sends the census back to the full walk, so the
   reachable set and the counts are the same either way.  The members
   were walked under the [stop] the part was frozen with; a census
   given the part must pass a [stop] that answers alike for them, as
   one deciding by the object's class word does. *)

type frozen = {
  member : bits;  (* bit [a - lo] marks member [a] *)
  limit : int;  (* end of the last recorded word *)
  in_roots : int array;  (* distinct in-range root addresses, ascending *)
  f_objects : int;
  f_words : int;
  f_classes : (Oop.t * int) array;  (* members per class oop *)
  exits : Oop.t array;  (* distinct pointers from members to non-members *)
  mutable seen : Bytes.t;  (* the last census's visited set, for reuse *)
  spans : int array;  (* start, length, ...: the words read, ascending *)
  image : int array;  (* expected words of [[lo, lo + length image)] *)
  own_at : int array;  (* ascending: the words read that [image] lacks *)
  own : int array;  (* their values *)
}

(* An address bitmap over [[lo, hi)] alone: {!index} maps [a] there to
   [a - lo] and every other address to -1. *)
let range_bits ~lo ~hi =
  { bytes = Bytes.make ((hi - lo + 7) / 8) '\000';
    old_base = lo;
    old_ptr = hi;
    new_base = max_int;
    new_off = 0;
    top = max_int }

let roots_in ~lo ~hi roots =
  Array.of_list
    (List.sort_uniq Int.compare
       (List.filter_map
          (fun o ->
            if Oop.is_ptr o && not (Oop.equal o Oop.sentinel) then
              let a = Oop.addr o in
              if a >= lo && a < hi then Some a else None
            else None)
          roots))

let freeze ?(stop = fun _ -> false) ?(image = [||]) h ~lo ~hi ~roots =
  if lo > hi || lo < h.old.base || hi > h.old.ptr then
    invalid_arg
      (Printf.sprintf "Verify.freeze: [%d, %d) is not allocated old space" lo
         hi);
  let member = range_bits ~lo ~hi in
  let exits = ref [] and stack = ref [] in
  let push o =
    if Oop.is_ptr o && not (Oop.equal o Oop.sentinel) then begin
      let i = index member (Oop.addr o) in
      if i < 0 then exits := o :: !exits
      else if not (is_set member i) then
        if stop o then exits := o :: !exits
        else begin
          set member i;
          stack := Oop.addr o :: !stack
        end
    end
  in
  let in_roots = roots_in ~lo ~hi roots in
  Array.iter (fun a -> push (Oop.of_addr a)) in_roots;
  let by_class = Oop.Tbl.create 64 in
  let objects = ref 0 and words = ref 0 in
  let rec walk () =
    match !stack with
    | [] -> ()
    | a :: rest ->
        stack := rest;
        incr objects;
        words := !words + size_words h a;
        let cls = class_at h a in
        (match Oop.Tbl.find_opt by_class cls with
         | Some n -> incr n
         | None -> Oop.Tbl.add by_class cls (ref 1));
        push cls;
        for i = 0 to Scavenger.scan_limit h a - 1 do
          push h.mem.(a + Layout.header_words + i)
        done;
        walk ()
  in
  walk ();
  (* The words read, member by member in address order: a raw member's
     header and class word, a non-raw member's every word.  A word that
     equals [image]'s joins a span checked against [image]; the rest are
     kept with their values. *)
  let spans = ref [] and own = ref [] and limit = ref hi in
  for i = hi - lo - 1 downto 0 do
    if is_set member i then begin
      let a = lo + i in
      let n = if is_raw h a then Layout.header_words else size_words h a in
      limit := Int.max !limit (a + n);
      for x = a + n - 1 downto a do
        let v = h.mem.(x) in
        if x - lo < Array.length image && image.(x - lo) = v then
          spans :=
            match !spans with
            | b :: m :: rest when x + 1 = b -> x :: (m + 1) :: rest
            | l -> x :: 1 :: l
        else own := (x, v) :: !own
      done
    end
  done;
  { member;
    limit = !limit;
    in_roots;
    f_objects = !objects;
    f_words = !words;
    f_classes =
      Array.of_list (Oop.Tbl.fold (fun c n acc -> (c, !n) :: acc) by_class []);
    exits = Array.of_list (List.sort_uniq Int.compare !exits);
    seen = Bytes.empty;
    spans = Array.of_list !spans;
    image;
    own_at = Array.of_list (List.map fst !own);
    own = Array.of_list (List.map snd !own) }

(* Whether a census of [h] from [roots] would walk [f]'s members as
   they were frozen: the range still lies in allocated old space, the
   in-range roots are the same and every word the walk read is
   unchanged. *)
let holds f h ~roots =
  let lo = f.member.old_base and hi = f.member.old_ptr in
  lo >= h.old.base && f.limit <= h.old.ptr
  &&
  let rs = roots_in ~lo ~hi roots in
  Array.length rs = Array.length f.in_roots
  && (let same = ref true and i = ref 0 in
      while !same && !i < Array.length rs do
        same := rs.(!i) = f.in_roots.(!i);
        incr i
      done;
      !same)
  &&
  (* every span lies below [f.limit], so in [mem] (checked above), and
     in [image] (checked when it was frozen): the gets need no bounds *)
  let mem = h.mem and image = f.image and spans = f.spans in
  let same = ref true and s = ref 0 in
  while !same && !s < Array.length spans do
    let a = spans.(!s) and n = spans.(!s + 1) in
    let d = a - lo and i = ref 0 in
    while
      !i < n
      && Array.unsafe_get mem (a + !i) = Array.unsafe_get image (d + !i)
    do
      incr i
    done;
    same := !i = n;
    s := !s + 2
  done;
  let i = ref 0 in
  while !same && !i < Array.length f.own_at do
    same := mem.(f.own_at.(!i)) = f.own.(!i);
    incr i
  done;
  !same

(* Mark [f]'s members visited in [seen], a {!bits} of the heap they
   were frozen on: one blit when the range starts on a byte of
   [seen]'s, else bit by bit. *)
let mark_members f seen =
  let off = f.member.old_base - seen.old_base in
  if off land 7 = 0 then
    Bytes.blit f.member.bytes 0 seen.bytes (off lsr 3)
      (Bytes.length f.member.bytes)
  else
    for i = 0 to f.member.old_ptr - f.member.old_base - 1 do
      if is_set f.member i then set seen (off + i)
    done

(* The reachability walk {!census} and {!check_marked} share: [visit]
   runs once on the address of every object reachable from [roots]
   through class slots and scanned fields, without entering objects
   satisfying [stop].  The visited set is an address bitmap and the
   pending objects an explicit stack, so the walk neither hashes nor
   recurses.  An oop outside allocated space has no bit: it is refused
   with [Invalid_argument] rather than counted.  Given a frozen part
   that {!holds}, the walk starts with its members visited and its
   exits pending, so [visit] sees only what lies past them; it keeps
   its visited set in the part for the next census to clear and reuse,
   as a fresh bitmap of a cluster node is a major-heap block of 10 KB. *)
let reachable ?(stop = fun _ -> false) ?frozen h ~roots visit =
  let seen =
    match frozen with
    | Some f ->
        let seen = bits ~reuse:f.seen h in
        f.seen <- seen.bytes;
        seen
    | None -> bits h
  in
  let stack = ref (Array.make 256 0) and depth = ref 0 in
  let push o =
    if Oop.is_ptr o && not (Oop.equal o Oop.sentinel) then begin
      let a = Oop.addr o in
      let i = index seen a in
      if i < 0 then
        invalid_arg
          (Printf.sprintf "Verify: oop @%d is outside allocated space" a);
      if not (is_set seen i) && not (stop o) then begin
        set seen i;
        if !depth = Array.length !stack then begin
          let grown = Array.make (2 * !depth) 0 in
          Array.blit !stack 0 grown 0 !depth;
          stack := grown
        end;
        !stack.(!depth) <- a;
        incr depth
      end
    end
  in
  (match frozen with
   | Some f ->
       mark_members f seen;
       Array.iter push f.exits
   | None -> ());
  List.iter push roots;
  while !depth > 0 do
    decr depth;
    let a = !stack.(!depth) in
    visit a;
    push (class_at h a);
    for i = 0 to Scavenger.scan_limit h a - 1 do
      push h.mem.(a + Layout.header_words + i)
    done
  done

(* Reachability versus the mark bitmap: run between mark completion and
   the first sweep slice (marks final, nothing freed yet), this checks
   that the incremental marker — barrier, allocate-black, new-space
   rescan and all — lost no reachable old object.  [marked] is the
   collector's bitmap predicate; [roots] must cover the same roots the
   marker scanned.  Traversal is {!census}'s: scanned fields only. *)
let check_marked h ~marked ~roots =
  let problems = ref [] in
  reachable h ~roots (fun a ->
      if a >= 2 && a < h.new_base && not (marked a) then
        problems :=
          { addr = a; what = "reachable old object is not marked" }
          :: !problems);
  List.sort (fun p q -> Int.compare p.addr q.addr) !problems

(* --- reachable census ---

   The schedule explorer's differential oracle needs a heap observable
   that is invariant across interleavings of the same program.  Whole-
   heap counts are not: scavenge timing, per-processor free-context
   recycling and process migration all shift how much garbage and
   padding each space holds.  What *is* schedule-invariant is the graph
   reachable from stable roots — the same objects exist with the same
   classes and sizes wherever the scheduler happened to put them.  Class
   oops are stable addresses (classes are bootstrapped into old space
   before any run), so grouping by class address is comparable across
   runs of one program.

   The [stop] predicate lets callers fence off parts of the graph that
   are *not* schedule-invariant even though they hang off stable roots:
   Process objects and their suspended context chains legitimately
   differ with the interleaving (a background process preempted earlier
   has run fewer iterations).  Objects satisfying [stop] are neither
   counted nor scanned. *)

type census = {
  objects : int;
  words : int;
  per_class : (int * int) list;  (* class key |-> reachable count *)
}

(* The per-class key defaults to the class oop's address, which is stable
   across runs of one bootstrap but an accident of allocation order
   between different images.  E19 compares censuses across snapshot,
   restore and independently-bootstrapped replicas, where an address is
   exactly the kind of accident the fingerprint must not see, so callers
   there pass [class_key] mapping each class oop to an identity derived
   from its name. *)
let census ?stop ?class_key ?frozen h ~roots =
  (* counted per class oop, so [class_key] runs once per class *)
  let by_class = Oop.Tbl.create 64 in
  let objects = ref 0 and words = ref 0 in
  let frozen =
    match frozen with
    | Some f when holds f h ~roots ->
        objects := f.f_objects;
        words := f.f_words;
        Array.iter
          (fun (cls, n) -> Oop.Tbl.add by_class cls (ref n))
          f.f_classes;
        frozen
    | Some _ | None -> None
  in
  reachable ?stop ?frozen h ~roots (fun a ->
      incr objects;
      words := !words + size_words h a;
      let cls = class_at h a in
      match Oop.Tbl.find_opt by_class cls with
      | Some n -> incr n
      | None -> Oop.Tbl.add by_class cls (ref 1));
  let key =
    match class_key with
    | Some f -> f
    | None -> fun cls -> if Oop.is_ptr cls then Oop.addr cls else -1
  in
  let by_key = Oop.Tbl.create 64 in
  Oop.Tbl.iter
    (fun cls n ->
      let k = key cls in
      match Oop.Tbl.find_opt by_key k with
      | Some m -> m := !m + !n
      | None -> Oop.Tbl.add by_key k (ref !n))
    by_class;
  let per_class =
    List.sort
      (fun (k, _) (k', _) -> Int.compare k k')
      (Oop.Tbl.fold (fun k n acc -> (k, !n) :: acc) by_key [])
  in
  { objects = !objects; words = !words; per_class }

let pp_census fmt c =
  Format.fprintf fmt "%d object(s), %d word(s), %d class(es)" c.objects
    c.words (List.length c.per_class)

(* One comparable word per census: FNV-1a over the totals and the sorted
   per-class table.  Combined with [class_key] this is the replica
   fingerprint E19 ships in checkpoint headers and divergence reports —
   equal graphs hash equal regardless of where allocation happened to
   place them. *)
let fingerprint c =
  List.fold_left
    (fun h (cls, n) -> Fnv.mix (Fnv.mix h cls) n)
    (Fnv.mix (Fnv.mix Fnv.offset c.objects) c.words)
    c.per_class
