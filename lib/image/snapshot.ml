(* Image snapshot/restore (E19).

   A checkpoint is the object memory's used prefixes — old space, eden
   (and its per-processor slices), both survivor semispaces — plus the
   entry table, the old-space free lists and the allocation counters,
   together with a set of caller-labeled "register" arrays for the
   host-side scalars the heap does not own (processor clocks, poll
   deadlines, whatever the capturing layer needs to resurrect).  The
   capturing layer is the E19 replica manager; this module stays below
   the interpreter on purpose, so the image library needs no knowledge
   of schedulers or calendars.

   Every VM of a process boots by copying one kernel image
   ({!Bootstrap.install}) into the start of its old space, and most of
   those words never change: of a cluster node's ~57 k old-space words,
   ~55 k are the unchanged image.  So a used prefix is stored as a delta
   against the image: the maximal runs of words that differ from the
   image word at the same address, where an address outside the image
   (all of new space, old space past the image's end) always differs.

   Restore does not rebuild a VM from nothing: it overwrites the memory
   of a target VM booted from the same image, with the same heap
   geometry.  It first checks every region (geometry, bump pointer, the
   runs' shape and that they cover every word the image cannot supply),
   then writes each used prefix as the image's words overwritten by the
   runs, so whatever the target ran before does not matter.  The image
   has every kernel object at the same address in every VM, so the
   host-side tables that map names to addresses (globals, symbols)
   remain valid for the restored content.  Host-side caches that point
   into the old memory (method caches, free-context lists, decoded
   contexts) are the caller's to flush, exactly as after an injected
   processor crash.

   The durable format is one self-describing header line

     MST-SNAP v2 fp=<census fingerprint> entries=<log entries> \
       len=<payload bytes> sum=<payload checksum> image=<image digest>

   followed by a marshalled payload.  The header carries enough to pick
   the newest usable checkpoint without unmarshalling; the length and
   FNV-1a checksum make truncation and bit-rot detectable before
   [Marshal] ever runs; and the image digest ({!Bootstrap.image_digest})
   refuses a delta against some other kernel image.  The fingerprint is
   the caller's to check after restore.  Every rejection raises the
   structured {!Corrupt} — a checkpoint that cannot be proven whole is
   never restored (the caller falls back to the previous one). *)

exception Corrupt of { path : string; what : string }

let corrupt path fmt =
  Printf.ksprintf (fun what -> raise (Corrupt { path; what })) fmt

(* A restore target that cannot receive this image: different geometry
   or policy — a configuration bug, not a damaged file. *)
exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt

let () =
  Printexc.register_printer (function
    | Corrupt { path; what } ->
        Some (Printf.sprintf "corrupt checkpoint %s: %s" path what)
    | Mismatch m -> Some (Printf.sprintf "checkpoint mismatch: %s" m)
    | _ -> None)

type region_image = {
  r_base : int;
  r_limit : int;
  r_ptr : int;
  r_runs : (int * int array) list;
      (* the maximal runs of [r_base, r_ptr) that differ from the image,
         as (first address, words), ascending *)
}

type heap_image = {
  i_old : region_image;
  i_eden : region_image;
  i_eden_regions : region_image array;
  i_surv_a : region_image;
  i_surv_b : region_image;
  i_past_is_a : bool;
  i_rset : int array;
  i_free_lists : int list array;
  i_free_words : int;
  (* counters restored for stats continuity; none steer behaviour *)
  i_allocations : int;
  i_words_allocated : int;
  i_scavenge_count : int;
  i_words_copied_total : int;
  i_tenured_words_total : int;
  i_free_list_hits : int;
  i_free_reused_words : int;
}

type registers = (string * int array) list

type t = {
  fingerprint : int;  (* Verify census fingerprint at capture *)
  entries : int;      (* log entries applied at capture *)
  heap : heap_image;
  registers : registers;
}

(* The image occupies old space from its base in every heap booted from
   it; an address outside that range never holds an image word. *)
let image_base (h : Heap.t) = h.Heap.old.Heap.base

(* The maximal runs of [lo, hi) whose words differ from the image word at
   the same address, with their words.  Only [ilo, ihi) has image words,
   so only it is compared, word by word; [lo, ilo) and [ihi, hi) differ
   without a test.  [start] opens the current run, or is -1. *)
let runs_of (h : Heap.t) ~image lo hi =
  let mem = h.Heap.mem and base = image_base h in
  let ilo = Int.min hi (Int.max lo base) in
  let ihi = Int.max ilo (Int.min hi (base + Array.length image)) in
  let runs = ref [] and start = ref (if lo < ilo then lo else -1) in
  let close a =
    runs := (!start, Array.sub mem !start (a - !start)) :: !runs;
    start := -1
  in
  for a = ilo to ihi - 1 do
    if mem.(a) <> image.(a - base) then (if !start < 0 then start := a)
    else if !start >= 0 then close a
  done;
  if ihi < hi && !start < 0 then start := ihi;
  if !start >= 0 then close hi;
  List.rev !runs

let region_of (h : Heap.t) ~image (r : Heap.region) =
  { r_base = r.Heap.base;
    r_limit = r.Heap.limit;
    r_ptr = r.Heap.ptr;
    r_runs = runs_of h ~image r.Heap.base r.Heap.ptr }

let capture (h : Heap.t) ~fingerprint ~entries ~registers =
  let image = Bootstrap.image_words () in
  let eden = region_of h ~image h.Heap.eden in
  { fingerprint;
    entries;
    heap =
      { i_old = region_of h ~image h.Heap.old;
        i_eden = eden;
        (* without replicated eden the one slice is eden itself: share
           its image, which [Marshal] then writes once *)
        i_eden_regions =
          Array.map
            (fun r -> if r == h.Heap.eden then eden else region_of h ~image r)
            h.Heap.eden_regions;
        i_surv_a = region_of h ~image h.Heap.surv_a;
        i_surv_b = region_of h ~image h.Heap.surv_b;
        i_past_is_a = h.Heap.past_is_a;
        i_rset = Array.sub h.Heap.rset 0 h.Heap.rset_len;
        i_free_lists = Array.copy h.Heap.free_lists;
        i_free_words = h.Heap.free_words;
        i_allocations = h.Heap.allocations;
        i_words_allocated = h.Heap.words_allocated;
        i_scavenge_count = h.Heap.scavenge_count;
        i_words_copied_total = h.Heap.words_copied_total;
        i_tenured_words_total = h.Heap.tenured_words_total;
        i_free_list_hits = h.Heap.free_list_hits;
        i_free_reused_words = h.Heap.free_reused_words };
    registers }

(* Everything [write_region] relies on, checked before any region is
   written: the geometry, a bump pointer inside the region, runs that are
   non-empty, ascending, disjoint and inside the used prefix, and no gap
   between them outside the image (a word the image cannot supply). *)
let check_region what (h : Heap.t) ~image (r : Heap.region) img =
  if r.Heap.base <> img.r_base || r.Heap.limit <> img.r_limit then
    mismatch "%s geometry differs: image [%d,%d), target [%d,%d)" what
      img.r_base img.r_limit r.Heap.base r.Heap.limit;
  if img.r_ptr < img.r_base || img.r_ptr > img.r_limit then
    mismatch "%s bump pointer %d is outside [%d,%d]" what img.r_ptr
      img.r_base img.r_limit;
  let base = image_base h in
  let image_end = base + Array.length image in
  let check_gap lo hi =
    if lo < hi && (lo < base || hi > image_end) then
      mismatch "%s words [%d,%d) are neither in a run nor in the image" what
        lo hi
  in
  let covered =
    List.fold_left
      (fun prev (a, words) ->
        let n = Array.length words in
        if n = 0 then mismatch "%s has an empty run at %d" what a;
        if a < prev then
          mismatch "%s run at %d overlaps or precedes the word %d" what a
            prev;
        if a + n > img.r_ptr then
          mismatch "%s run [%d,%d) passes the bump pointer %d" what a (a + n)
            img.r_ptr;
        check_gap prev a;
        a + n)
      img.r_base img.r_runs
  in
  check_gap covered img.r_ptr

(* The used prefix is the image's words where it has them, overwritten
   by the runs. *)
let write_region (h : Heap.t) ~image (r : Heap.region) img =
  let base = image_base h in
  let lo = Int.max img.r_base base
  and hi = Int.min img.r_ptr (base + Array.length image) in
  if lo < hi then Heap.blit_words image (lo - base) h.Heap.mem lo (hi - lo);
  List.iter
    (fun (a, words) ->
      Heap.blit_words words 0 h.Heap.mem a (Array.length words))
    img.r_runs;
  (* Walkers stop at the bump pointer, but recycling the heap's array
     (on [Heap.release] or once the heap is collected) relies on every
     old-space word at or above [old.ptr] being zero: clear what a lower
     pointer abandons (new space is zeroed whole when recycled) *)
  if r == h.Heap.old && img.r_ptr < r.Heap.ptr then
    Array.fill h.Heap.mem img.r_ptr (r.Heap.ptr - img.r_ptr) 0;
  r.Heap.ptr <- img.r_ptr

let restore t (h : Heap.t) =
  let i = t.heap in
  if Array.length i.i_eden_regions <> Array.length h.Heap.eden_regions then
    mismatch "eden slice count differs: image %d, target %d"
      (Array.length i.i_eden_regions)
      (Array.length h.Heap.eden_regions);
  if Array.length i.i_free_lists <> Array.length h.Heap.free_lists then
    mismatch "free-list bucket count differs";
  let image = Bootstrap.image_words () in
  let regions =
    [ ("old space", h.Heap.old, i.i_old); ("eden", h.Heap.eden, i.i_eden) ]
    @ List.mapi
        (fun k img -> ("eden slice", h.Heap.eden_regions.(k), img))
        (Array.to_list i.i_eden_regions)
    @ [ ("survivor a", h.Heap.surv_a, i.i_surv_a);
        ("survivor b", h.Heap.surv_b, i.i_surv_b) ]
  in
  List.iter (fun (what, r, img) -> check_region what h ~image r img) regions;
  List.iter (fun (_, r, img) -> write_region h ~image r img) regions;
  h.Heap.past_is_a <- i.i_past_is_a;
  if Array.length i.i_rset > Array.length h.Heap.rset then
    h.Heap.rset <- Array.copy i.i_rset
  else Array.blit i.i_rset 0 h.Heap.rset 0 (Array.length i.i_rset);
  h.Heap.rset_len <- Array.length i.i_rset;
  Array.blit i.i_free_lists 0 h.Heap.free_lists 0
    (Array.length i.i_free_lists);
  h.Heap.free_words <- i.i_free_words;
  h.Heap.allocations <- i.i_allocations;
  h.Heap.words_allocated <- i.i_words_allocated;
  h.Heap.scavenge_count <- i.i_scavenge_count;
  h.Heap.words_copied_total <- i.i_words_copied_total;
  h.Heap.tenured_words_total <- i.i_tenured_words_total;
  h.Heap.free_list_hits <- i.i_free_list_hits;
  h.Heap.free_reused_words <- i.i_free_reused_words;
  t.registers

(* --- the durable format --- *)

let magic = "MST-SNAP v2"

let save path t =
  let payload = Marshal.to_string (t.heap, t.registers) [] in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Printf.sprintf "%s fp=%d entries=%d len=%d sum=%d image=%d\n" magic
           t.fingerprint t.entries (String.length payload)
           (Fnv.string payload) (Bootstrap.image_digest ()));
      output_string oc payload)

let parse_header path line =
  let fields = String.split_on_char ' ' (String.trim line) in
  let value key s =
    let prefix = key ^ "=" in
    if String.length s > String.length prefix
       && String.sub s 0 (String.length prefix) = prefix
    then
      int_of_string_opt
        (String.sub s (String.length prefix)
           (String.length s - String.length prefix))
    else None
  in
  let find key =
    match List.find_map (value key) fields with
    | Some v -> v
    | None -> corrupt path "header field %S missing or malformed" key
  in
  match fields with
  | m1 :: m2 :: _ when m1 ^ " " ^ m2 = magic ->
      (find "fp", find "entries", find "len", find "sum", find "image")
  | _ ->
      corrupt path "missing or unsupported header %S (want %S ...)"
        (String.trim line) magic

let load path =
  let ic =
    try open_in_bin path
    with Sys_error msg -> corrupt path "cannot open: %s" msg
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let line =
        try input_line ic
        with End_of_file -> corrupt path "empty file (missing header)"
      in
      let fp, entries, len, sum, image = parse_header path line in
      if image <> Bootstrap.image_digest () then
        corrupt path "taken against kernel image %d, not this one (%d)" image
          (Bootstrap.image_digest ());
      let payload = Bytes.create len in
      (try really_input ic payload 0 len
       with End_of_file ->
         corrupt path "truncated payload (want %d bytes)" len);
      let payload = Bytes.unsafe_to_string payload in
      if Fnv.string payload <> sum then
        corrupt path "payload checksum mismatch (damaged file)";
      let heap, registers =
        try (Marshal.from_string payload 0 : heap_image * registers)
        with Failure msg -> corrupt path "unreadable payload: %s" msg
      in
      { fingerprint = fp; entries; heap; registers })
