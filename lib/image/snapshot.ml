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

   Restore does not rebuild a VM from nothing: it overwrites the memory
   of a skeleton VM *booted from the same image*.  Every VM of a process
   boots from one kernel image ({!Bootstrap.install}), so the skeleton
   has every kernel object at the same address the checkpointed heap had,
   and the host-side tables that map names to addresses (globals,
   symbols) remain valid for the restored content.  Host-side caches that point into the old
   memory (method caches, free-context lists, decoded contexts) are the
   caller's to flush, exactly as after an injected processor crash.

   The durable format is one self-describing header line

     MST-SNAP v1 fp=<census fingerprint> entries=<log entries> \
       len=<payload bytes> sum=<payload checksum>

   followed by a marshalled payload.  The header carries enough to pick
   the newest usable checkpoint without unmarshalling; the length and
   FNV-1a checksum make truncation and bit-rot detectable before
   [Marshal] ever runs; and the payload repeats the fingerprint/entry
   pair so a swapped payload cannot hide behind a valid header.  Every
   rejection raises the structured {!Corrupt} — a checkpoint that cannot
   be proven whole is never restored (the caller falls back to the
   previous one). *)

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
  r_words : int array;  (* the used prefix [r_base, r_ptr) *)
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

let region_of (h : Heap.t) (r : Heap.region) =
  { r_base = r.Heap.base;
    r_limit = r.Heap.limit;
    r_ptr = r.Heap.ptr;
    r_words = Array.sub h.Heap.mem r.Heap.base (r.Heap.ptr - r.Heap.base) }

let capture (h : Heap.t) ~fingerprint ~entries ~registers =
  { fingerprint;
    entries;
    heap =
      { i_old = region_of h h.Heap.old;
        i_eden = region_of h h.Heap.eden;
        i_eden_regions = Array.map (region_of h) h.Heap.eden_regions;
        i_surv_a = region_of h h.Heap.surv_a;
        i_surv_b = region_of h h.Heap.surv_b;
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

let restore_region what (h : Heap.t) (r : Heap.region) img =
  if r.Heap.base <> img.r_base || r.Heap.limit <> img.r_limit then
    mismatch "%s geometry differs: image [%d,%d), target [%d,%d)" what
      img.r_base img.r_limit r.Heap.base r.Heap.limit;
  let n = Array.length img.r_words in
  if img.r_ptr <> img.r_base + n then
    mismatch "%s bump pointer %d disagrees with its %d words from %d" what
      img.r_ptr n img.r_base;
  if img.r_ptr > img.r_limit then
    mismatch "%s bump pointer %d is past its limit %d" what img.r_ptr
      img.r_limit;
  Array.blit img.r_words 0 h.Heap.mem img.r_base n;
  (* Walkers stop at the bump pointer, but [Heap.release] relies on every
     old-space word at or above [old.ptr] being zero: clear what a lower
     pointer abandons (new space is zeroed whole on release) *)
  if r == h.Heap.old && img.r_ptr < r.Heap.ptr then
    Array.fill h.Heap.mem img.r_ptr (r.Heap.ptr - img.r_ptr) 0;
  r.Heap.ptr <- img.r_ptr

let restore t (h : Heap.t) =
  let i = t.heap in
  if Array.length i.i_eden_regions <> Array.length h.Heap.eden_regions then
    mismatch "eden slice count differs: image %d, target %d"
      (Array.length i.i_eden_regions)
      (Array.length h.Heap.eden_regions);
  restore_region "old space" h h.Heap.old i.i_old;
  restore_region "eden" h h.Heap.eden i.i_eden;
  Array.iteri
    (fun k img -> restore_region "eden slice" h h.Heap.eden_regions.(k) img)
    i.i_eden_regions;
  restore_region "survivor a" h h.Heap.surv_a i.i_surv_a;
  restore_region "survivor b" h h.Heap.surv_b i.i_surv_b;
  h.Heap.past_is_a <- i.i_past_is_a;
  if Array.length i.i_rset > Array.length h.Heap.rset then
    h.Heap.rset <- Array.copy i.i_rset
  else Array.blit i.i_rset 0 h.Heap.rset 0 (Array.length i.i_rset);
  h.Heap.rset_len <- Array.length i.i_rset;
  if Array.length i.i_free_lists <> Array.length h.Heap.free_lists then
    mismatch "free-list bucket count differs";
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

let fnv_string s =
  let h = ref 0x811C9DC5 in
  String.iter
    (fun c -> h := ((!h lxor Char.code c) * 0x01000193) land max_int)
    s;
  !h

let magic = "MST-SNAP v1"

let save path t =
  let payload = Marshal.to_string (t.heap, t.registers) [] in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Printf.sprintf "%s fp=%d entries=%d len=%d sum=%d\n" magic
           t.fingerprint t.entries (String.length payload)
           (fnv_string payload));
      output_string oc payload)

(* Header fields without unmarshalling: enough to rank checkpoints by
   applied-entry count and to cross-check a restored image. *)
type header = { h_fingerprint : int; h_entries : int }

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
      (find "fp", find "entries", find "len", find "sum")
  | _ ->
      corrupt path "missing or unsupported header %S (want %S ...)"
        (String.trim line) magic

let read_header path =
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
      let fp, entries, _, _ = parse_header path line in
      { h_fingerprint = fp; h_entries = entries })

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
      let fp, entries, len, sum = parse_header path line in
      let payload = Bytes.create len in
      (try really_input ic payload 0 len
       with End_of_file ->
         corrupt path "truncated payload (want %d bytes)" len);
      let payload = Bytes.unsafe_to_string payload in
      if fnv_string payload <> sum then
        corrupt path "payload checksum mismatch (damaged file)";
      let heap, registers =
        try (Marshal.from_string payload 0 : heap_image * registers)
        with Failure msg -> corrupt path "unreadable payload: %s" msg
      in
      { fingerprint = fp; entries; heap; registers })
