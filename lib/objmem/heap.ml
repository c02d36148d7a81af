(* The object memory: a flat word array divided into an old space and a new
   space (eden plus two survivor semispaces), managed by Generation
   Scavenging exactly as in Berkeley Smalltalk (Ungar '84): allocation is a
   pointer bump in eden; survivors ping-pong between the two survivor
   spaces and are tenured into old space after [tenure_age] scavenges; old
   objects that may refer to new objects are recorded in the entry table
   (remembered set), marked by a per-object header flag.

   Multiprocessor strategies from the paper appear here as allocation
   policies: [Unlocked] is single-threaded baseline BS; [Shared_locked] is
   MS's serialized allocation (the lock itself lives at the VM layer, which
   charges its cycles); [Replicated_eden] is the paper's proposed
   "replication of the new-object space", giving each processor a private
   eden region. *)

exception Scavenge_needed
exception Image_full of string

type alloc_policy = Unlocked | Shared_locked | Replicated_eden

type region = {
  mutable ptr : int;
  base : int;
  limit : int;
}

type scavenge_stats = {
  mutable survivor_objects : int;
  mutable survivor_words : int;
  mutable tenured_objects : int;
  mutable tenured_words : int;
  mutable remembered_scanned : int;
  mutable roots_scanned : int;
}

let empty_stats () = {
  survivor_objects = 0; survivor_words = 0;
  tenured_objects = 0; tenured_words = 0;
  remembered_scanned = 0; roots_scanned = 0;
}

type t = {
  mem : int array;
  old : region;
  eden : region;                  (* whole eden; also used when shared *)
  eden_regions : region array;    (* per-processor slices when replicated *)
  policy : alloc_policy;
  new_base : int;                 (* everything at/above this is new space *)
  surv_a : region;
  surv_b : region;
  mutable past_is_a : bool;
  tenure_age : int;
  mutable nil : Oop.t;            (* fill value for pointer objects *)
  (* the entry table *)
  mutable rset : int array;       (* word addresses of remembered objects *)
  mutable rset_len : int;
  (* scavenge roots and hooks *)
  mutable roots : Oop.t ref list;
  mutable array_roots : Oop.t array list;
  mutable on_scavenge : (unit -> unit) list;
  mutable method_ctx_class : Oop.t;
  mutable block_ctx_class : Oop.t;
  (* serialization checking *)
  sanitizer : Sanitizer.t;
  san_entry_table : Sanitizer.id;  (* resource ids in [sanitizer] *)
  san_allocation : Sanitizer.id;
  (* incremental old-space collection (E18): swept holes are threaded on
     size-segregated free lists (buckets 0..15 hold exact sizes 2..17,
     bucket 16 is first-fit overflow for >= 18 words); the hooks are
     installed by the VM layer when the major collector is enabled *)
  free_lists : int list array;
  mutable free_words : int;              (* words threaded on the lists *)
  mutable free_list_hits : int;
  mutable free_reused_words : int;
  mutable major_dirty : (Oop.t -> unit) option;   (* the write barrier *)
  mutable major_marking : bool;  (* the collector is marking: the barrier
                                    is live (set by [Major]) *)
  mutable on_old_alloc : (int -> unit) option;    (* allocate-black *)
  mutable on_old_exhausted : (int -> bool) option; (* forced completion *)
  (* statistics *)
  mutable allocations : int;
  mutable words_allocated : int;
  mutable scavenge_count : int;
  mutable words_copied_total : int;
  mutable tenured_words_total : int;
  released : bool ref;            (* [mem] went back to the pool *)
}

let region base words = { ptr = base; base; limit = base + words }
let region_used r = r.ptr - r.base
let region_avail r = r.limit - r.ptr

(* Zeroed word arrays of dead heaps, kept for later [create]s of the
   same length: one pool per domain, so domains never share one.  A
   fresh 2 M-word array is zero-filled and page-faulted in the OCaml
   major heap, where it paces major collections; every VM build would
   pay that, although the kernel image it boots is about 60 K words.
   Four arrays cover a default cluster (three replica heaps and a rejoin
   skeleton) and table2's four VMs per set-up.  Pooled arrays, like live
   ones, are abstract blocks ([fresh_mem]), so keeping them costs the
   major GC no marking.

   An array joins the pool from [release] or from the finaliser [create]
   registers, whichever comes first, and the [released] cell makes the
   other do nothing.  Finalisers run at allocations and polls, so one can
   run between reading the pool and writing it back in [take_mem] or
   [pool_add]: each update is a compare-and-set of the list it read,
   retried when a finaliser changed the pool in between.  The pool thus
   never loses an entry (beyond the oldest it drops past [pool_limit])
   and never hands one array out twice. *)
let pool_limit = 4

let pool : int array list Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make [])

(* A fresh zeroed word array that OCaml's major GC never scans.  The
   words are ints, which the marker skips anyway, but a 2 M-word array
   with an ordinary tag is still walked word by word on every major
   cycle, live or pooled.  An [Abstract_tag] block is not walked at all.
   Its type stays [int array], so every access compiles as before; only
   polymorphic operations see it differently: [compare] and [Marshal]
   raise, and [Hashtbl.hash] answers 0 whatever the words.  The block
   starts uninitialised, so it is zeroed by a loop typed [int array]:
   [Array.make] would build an ordinary block, and [Array.fill]
   ([caml_array_fill]) reads each old word and could darken the garbage.
   Once zeroed the array holds only ints, so [recycle]'s fills are
   safe. *)
let fresh_mem total : int array =
  let mem : int array = Obj.obj (Obj.new_block Obj.abstract_tag total) in
  for i = 0 to total - 1 do
    Array.unsafe_set mem i 0
  done;
  mem

let rec take_mem total =
  let cell = Domain.DLS.get pool in
  let arrays = Atomic.get cell in
  match List.find_opt (fun mem -> Array.length mem = total) arrays with
  | None -> fresh_mem total
  | Some mem ->
      if Atomic.compare_and_set cell arrays
           (List.filter (fun m -> m != mem) arrays)
      then mem
      else take_mem total

let rec pool_add mem =
  let cell = Domain.DLS.get pool in
  let arrays = Atomic.get cell in
  if not
       (Atomic.compare_and_set cell arrays
          (List.filteri (fun i _ -> i < pool_limit) (mem :: arrays)))
  then pool_add mem

(* Only [0, old.ptr) and new space can hold written words: old space
   grows by bump pointer alone, and a restore that lowers [old.ptr]
   zeroes what it abandons.  Clearing those ranges leaves the array
   word-for-word equal to a fresh one.  [released] is set before the
   first allocation, so the finaliser of a heap that dies mid-release
   finds it set. *)
let recycle mem (old : region) new_base released =
  if not !released then begin
    released := true;
    Array.fill mem 0 old.ptr 0;
    Array.fill mem new_base (Array.length mem - new_base) 0;
    pool_add mem
  end

(* Recycle [h]'s array once the GC collects [h] unreleased.  The
   finaliser takes the heap's parts, never the heap: a closure holding
   the heap would keep it, and its VM, reachable. *)
let recycle_when_collected h =
  let mem = h.mem and old = h.old and new_base = h.new_base
  and released = h.released in
  Gc.finalise_last (fun () -> recycle mem old new_base released) h;
  h

(* A second release of one heap would pool an array a live VM may have
   been given since. *)
let release h =
  if !(h.released) then invalid_arg "Heap.release: heap already released";
  recycle h.mem h.old h.new_base h.released

let create ?(policy = Unlocked) ?(processors = 1) ?(tenure_age = 4)
    ?(sanitizer = Sanitizer.create Sanitizer.Off) ~old_words ~eden_words
    ~survivor_words () =
  if processors < 1 then invalid_arg "Heap.create: processors";
  (* the VM's allocation lock registers "allocation" before the entry
     table's lock registers its name: keep that id order *)
  let san_allocation = Sanitizer.id sanitizer "allocation" in
  let san_entry_table = Sanitizer.id sanitizer "entry table" in
  let reserved = 2 in
  let old_base = reserved in
  let eden_base = old_base + old_words in
  let surv_a_base = eden_base + eden_words in
  let surv_b_base = surv_a_base + survivor_words in
  let total = surv_b_base + survivor_words in
  let eden = region eden_base eden_words in
  let eden_regions =
    match policy with
    | Replicated_eden ->
        (* the last slice absorbs the division remainder, so the slices
           tile eden exactly (Verify checks this invariant) *)
        let slice = eden_words / processors in
        Array.init processors (fun i ->
            let base = eden_base + (i * slice) in
            let words =
              if i = processors - 1 then eden_words - (i * slice) else slice
            in
            region base words)
    | Unlocked | Shared_locked -> [| eden |]
  in
  recycle_when_collected
    { mem = take_mem total;
      old = region old_base old_words;
      eden;
      eden_regions;
      policy;
      new_base = eden_base;
      surv_a = region surv_a_base survivor_words;
      surv_b = region surv_b_base survivor_words;
      past_is_a = true;
      tenure_age;
      nil = Oop.sentinel;
      rset = Array.make 1024 0;
      rset_len = 0;
      roots = [];
      array_roots = [];
      on_scavenge = [];
      method_ctx_class = Oop.sentinel;
      block_ctx_class = Oop.sentinel;
      sanitizer;
      san_entry_table;
      san_allocation;
      free_lists = Array.make 17 [];
      free_words = 0;
      free_list_hits = 0;
      free_reused_words = 0;
      major_dirty = None;
      major_marking = false;
      on_old_alloc = None;
      on_old_exhausted = None;
      allocations = 0;
      words_allocated = 0;
      scavenge_count = 0;
      words_copied_total = 0;
      tenured_words_total = 0;
      released = ref false }

let set_nil h nil = h.nil <- nil
let add_root h cell = h.roots <- cell :: h.roots
let remove_root h cell =
  h.roots <- List.filter (fun c -> not (c == cell)) h.roots
let add_array_root h arr = h.array_roots <- arr :: h.array_roots
let on_scavenge h hook = h.on_scavenge <- hook :: h.on_scavenge

let is_new h (o : Oop.t) = Oop.is_ptr o && Oop.addr o >= h.new_base
let is_old h (o : Oop.t) =
  Oop.is_ptr o && Oop.addr o >= 2 && Oop.addr o < h.new_base

(* --- header access --- *)

let size_words h a = h.mem.(a) asr Layout.size_shift
let slots h a = size_words h a - Layout.header_words
let class_at h a = h.mem.(a + 1)
let set_class h a cls = h.mem.(a + 1) <- cls
let age h a = (h.mem.(a) lsr Layout.age_shift) land Layout.age_mask
let is_raw h a = h.mem.(a) land Layout.flag_raw <> 0
let is_bytes h a = h.mem.(a) land Layout.flag_bytes <> 0
let is_remembered h a = h.mem.(a) land Layout.flag_remembered <> 0
let is_filler h a = h.mem.(a) land Layout.flag_filler <> 0

(* --- field access --- *)

let get h (o : Oop.t) i = h.mem.(Oop.addr o + Layout.header_words + i)

(* Raw store, for non-pointer values and for new-space receivers. *)
let set_raw h (o : Oop.t) i v =
  h.mem.(Oop.addr o + Layout.header_words + i) <- v

(* Copy [len] words, ranges checked first.  On OCaml 5 [Array.blit] into
   a major-heap array stores through [caml_modify], once per word,
   though int words need no write barrier; a loop typed [int array]
   stores them plainly.  It copies forwards: every caller copies between
   disjoint ranges. *)
let blit_words (src : int array) src_pos (dst : int array) dst_pos len =
  if len < 0 || src_pos < 0 || src_pos > Array.length src - len
     || dst_pos < 0 || dst_pos > Array.length dst - len
  then invalid_arg "Heap.blit_words";
  for i = 0 to len - 1 do dst.(dst_pos + i) <- src.(src_pos + i) done

(* --- the entry table --- *)

let remember h a =
  if Sanitizer.checking h.sanitizer then
    Sanitizer.check_guarded h.sanitizer ~resource:h.san_entry_table ~vp:(-1)
      ~now:(-1) Trace.Address a 0;
  if h.rset_len = Array.length h.rset then begin
    let bigger = Array.make (2 * Array.length h.rset) 0 in
    Array.blit h.rset 0 bigger 0 h.rset_len;
    h.rset <- bigger
  end;
  h.rset.(h.rset_len) <- a;
  h.rset_len <- h.rset_len + 1;
  h.mem.(a) <- h.mem.(a) lor Layout.flag_remembered

let remembered_count h = h.rset_len

(* True when [store_ptr h o _ v] would insert [o] into the entry table —
   lets callers acquire the entry-table lock before the store instead of
   charging it after the fact. *)
let store_would_remember h (o : Oop.t) (v : Oop.t) =
  let a = Oop.addr o in
  a < h.new_base && a >= 2 && is_new h v && not (is_remembered h a)

(* The incremental collector's write barrier, when installed (E18):
   Dijkstra-style incremental update — the stored target is shaded, so no
   pointer to a white old object can be hidden inside an already-scanned
   one.  The barrier acts only while the collector marks, so it is called
   only then: [major_marking] mirrors the collector's phase.  Pointer
   stores that bypass [store_ptr] (scheduler queue surgery, free-context
   threading) call this directly before their raw store. *)
let major_note h (v : Oop.t) =
  if h.major_marking then
    match h.major_dirty with Some f -> f v | None -> ()

(* Pointer store with the generation-scavenging store check.  Returns true
   when the store inserted the receiver into the entry table, so the caller
   can charge the entry-table lock. *)
let store_ptr h (o : Oop.t) i (v : Oop.t) =
  let a = Oop.addr o in
  h.mem.(a + Layout.header_words + i) <- v;
  major_note h v;
  if a < h.new_base && a >= 2 && is_new h v && not (is_remembered h a) then begin
    remember h a;
    true
  end else false

(* Swap-remove [a]'s entry-table entry: the incremental sweep purges the
   entries of objects it frees.  Linear, but sweeps touch few remembered
   objects relative to the table walks the scavenger already does. *)
let rset_remove h a =
  let i = ref 0 in
  while !i < h.rset_len && h.rset.(!i) <> a do incr i done;
  if !i < h.rset_len then begin
    h.rset_len <- h.rset_len - 1;
    h.rset.(!i) <- h.rset.(h.rset_len)
  end

(* --- allocation --- *)

let eden_region h vp =
  match h.policy with
  | Replicated_eden -> h.eden_regions.(vp)
  | Unlocked | Shared_locked -> h.eden

let eden_avail h ~vp = region_avail (eden_region h vp)
let eden_used h =
  match h.policy with
  | Replicated_eden ->
      Array.fold_left (fun n r -> n + region_used r) 0 h.eden_regions
  | Unlocked | Shared_locked -> region_used h.eden

let write_header h a ~total ~flags ~age ~cls =
  h.mem.(a) <-
    (total lsl Layout.size_shift) lor (age lsl Layout.age_shift) lor flags;
  h.mem.(a + 1) <- cls

let fill h a ~from ~until v =
  for i = from to until - 1 do h.mem.(a + i) <- v done

let flags_of_format ~raw ~bytes =
  (if raw then Layout.flag_raw else 0) lor (if bytes then Layout.flag_bytes else 0)

(* Allocate in new space on processor [vp].  Raises [Scavenge_needed] when
   eden cannot satisfy the request; the engine runs a scavenge rendezvous
   and retries.  The interpreter checks a low-water mark before each step,
   so this exception only fires for unusually large requests. *)
let alloc_new h ~vp ~slots ~raw ?(bytes = false) ~cls () =
  let total = slots + Layout.header_words in
  let r = eden_region h vp in
  if region_avail r < total then raise Scavenge_needed;
  if Sanitizer.checking h.sanitizer then
    Sanitizer.check_guarded h.sanitizer ~resource:h.san_allocation ~vp
      ~now:(-1) Trace.Words total 0;
  let a = r.ptr in
  r.ptr <- r.ptr + total;
  write_header h a ~total ~flags:(flags_of_format ~raw ~bytes) ~age:0 ~cls;
  fill h a ~from:Layout.header_words ~until:total (if raw then 0 else h.nil);
  h.allocations <- h.allocations + 1;
  h.words_allocated <- h.words_allocated + total;
  Oop.of_addr a

(* --- the old-space free lists (E18) --- *)

(* Dead padding: a raw filler pseudo-object.  Fillers may be a single
   word (header only), which is why region walkers test the flag before
   assuming a two-word header.  Written by the parallel scavenger over
   abandoned buffer tails and by the incremental sweep over reclaimed
   holes. *)
let write_filler h a n =
  h.mem.(a) <-
    (n lsl Layout.size_shift) lor Layout.flag_raw lor Layout.flag_filler;
  if n >= Layout.header_words then h.mem.(a + 1) <- Oop.sentinel

let free_bucket n = if n < 18 then n - 2 else 16

(* Thread the hole [a, a+n) onto its free list.  One-word scraps are
   written as fillers but not threaded; the next sweep coalesces them
   into their neighbours. *)
let free_add h a n =
  write_filler h a n;
  if n >= 2 then begin
    let b = free_bucket n in
    h.free_lists.(b) <- a :: h.free_lists.(b);
    h.free_words <- h.free_words + n
  end

(* Drop every threaded hole (they stay as plain fillers in the heap).
   The sweep calls this before rebuilding the lists, so a filler absorbed
   into a larger coalesced hole can never survive as a stale entry. *)
let free_reset h =
  Array.fill h.free_lists 0 (Array.length h.free_lists) [];
  h.free_words <- 0

(* Carve [total] words from the start of the hole [a, a+sz): re-thread a
   remainder of 2+ words, leave a 1-word filler scrap otherwise. *)
let free_carve h a sz total =
  let rem = sz - total in
  if rem >= 2 then free_add h (a + total) rem
  else if rem = 1 then write_filler h (a + total) 1;
  a

(* A hole of [sz] words at [a], just unthreaded, supplies [total]. *)
let took h a sz total =
  h.free_list_hits <- h.free_list_hits + 1;
  h.free_reused_words <- h.free_reused_words + total;
  free_carve h a sz total

let rec first_fit h total acc = function
  | [] -> -1
  | a :: rest ->
      let sz = size_words h a in
      if sz >= total then begin
        h.free_lists.(16) <- List.rev_append acc rest;
        h.free_words <- h.free_words - sz;
        took h a sz total
      end
      else first_fit h total (a :: acc) rest

let rec exact_fit h total b =
  if b >= 16 then first_fit h total [] h.free_lists.(16)
  else
    match h.free_lists.(b) with
    | a :: rest ->
        h.free_lists.(b) <- rest;
        h.free_words <- h.free_words - (b + 2);
        took h a (b + 2) total
    | [] -> exact_fit h total (b + 1)

(* Take [total] words from the free lists: exact buckets smallest-first,
   then first fit in the overflow bucket.  Answers the address, or -1
   when no hole fits: every promotion into old space asks, so the search
   builds no option or pair. *)
let free_take h total =
  if total < 2 then -1 else exact_fit h total (free_bucket total)

(* Raw old-space allocation: the free lists first, then the bump pointer;
   -1 when neither can supply [total] words. *)
let alloc_old_addr h total =
  let a = free_take h total in
  if a >= 0 then a
  else if region_avail h.old >= total then begin
    let a = h.old.ptr in
    h.old.ptr <- h.old.ptr + total;
    a
  end
  else -1

(* Allocate-black: objects entering old space mid-cycle are marked (and
   greyed) by the collector's hook, so an in-flight mark-sweep can never
   free them. *)
let mark_old_alloc h a =
  match h.on_old_alloc with Some f -> f a | None -> ()

(* Allocate directly in old space: permanent image objects (classes,
   methods, literals) and objects too large for eden.  [Image_full] is a
   last resort: with the incremental collector enabled, the
   [on_old_exhausted] hook force-completes an in-flight major cycle (or
   runs a full one) and the allocation is retried against whatever the
   sweep reclaimed. *)
let alloc_old h ~slots ~raw ?(bytes = false) ~cls () =
  let total = slots + Layout.header_words in
  let a =
    let a = alloc_old_addr h total in
    if a >= 0 then a
    else
      match h.on_old_exhausted with
      | Some force when force total ->
          let a = alloc_old_addr h total in
          if a >= 0 then a else raise (Image_full "old space exhausted")
      | _ -> raise (Image_full "old space exhausted")
  in
  write_header h a ~total ~flags:(flags_of_format ~raw ~bytes) ~age:0 ~cls;
  fill h a ~from:Layout.header_words ~until:total (if raw then 0 else h.nil);
  mark_old_alloc h a;
  h.allocations <- h.allocations + 1;
  h.words_allocated <- h.words_allocated + total;
  Oop.of_addr a

(* --- strings and symbols (raw byte objects, one character per word) --- *)

let alloc_string_old h ~cls s =
  let n = String.length s in
  let o = alloc_old h ~slots:n ~raw:true ~bytes:true ~cls () in
  String.iteri (fun i c -> set_raw h o i (Char.code c)) s;
  o

let string_value h (o : Oop.t) =
  let n = slots h (Oop.addr o) in
  String.init n (fun i -> Char.chr (get h o i land 0xff))

(* --- statistics --- *)

(* Live occupancy: words past the bump pointer minus words threaded on the
   free lists (holes are dead by construction). *)
let old_used h = region_used h.old - h.free_words
let old_avail h = region_avail h.old + h.free_words
let free_words h = h.free_words
let free_list_hits h = h.free_list_hits
let free_reused_words h = h.free_reused_words
let survivor_used h = region_used (if h.past_is_a then h.surv_a else h.surv_b)
let scavenge_count h = h.scavenge_count
let allocations h = h.allocations
let words_allocated h = h.words_allocated
let words_copied_total h = h.words_copied_total
let tenured_words_total h = h.tenured_words_total
