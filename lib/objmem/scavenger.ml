(* Generation Scavenging (Ungar '84), as used by Berkeley Smalltalk: a
   stop-and-copy collection of new space only.  Live new objects are copied
   from eden and the past survivor space into the future survivor space
   (Cheney's algorithm); objects that have survived [tenure_age] scavenges,
   or that overflow the survivor space, are promoted into old space.  The
   entry table (remembered set) supplies the old-to-new roots.  Old space
   itself is reclaimed only by the incremental mark-sweep ([Major], E18),
   whose swept holes a promotion may land in.

   Because contexts keep their evaluation stack inside the object, only the
   live portion — [stackp] frame slots — is scanned; the slots above the
   stack pointer hold stale oops from popped values.

   Two collectors share one set of mechanics — pass start, object move,
   [forward], [update_fields] and flip — and differ only in where a copy
   goes and in what order grey objects are scanned: the serial Cheney
   [scavenge] below, and the simulated multi-worker [scavenge_parallel]
   (E10) after it.

   The caller (the engine) is responsible for the multiprocessor rendezvous:
   every interpreter must be parked before a collection runs, and the
   [on_scavenge] hooks flush the method caches and free-context lists whose
   entries would otherwise dangle across the copy. *)

open Heap

let is_context h cls =
  Oop.equal cls h.method_ctx_class || Oop.equal cls h.block_ctx_class

(* Number of fields of the object at [a] the scavenger must scan. *)
let scan_limit h a =
  if is_raw h a then 0
  else begin
    let n = slots h a in
    if is_context h (class_at h a) then begin
      let sp = h.mem.(a + Layout.header_words + Layout.Ctx.stackp) in
      let live = Layout.Ctx.fixed_slots + (if Oop.is_small sp then Oop.small_val sp else 0) in
      Int.min n live
    end else n
  end

(* One collection in progress: its statistics, the future survivor space
   it copies into, and the past survivor space that is from-space with
   eden. *)
type pass = { stats : scavenge_stats; to_region : region; past : region }

(* Run the [on_scavenge] hooks, choose the survivor spaces and empty the
   future one. *)
let start_pass h =
  List.iter (fun hook -> hook ()) h.on_scavenge;
  let to_region, past =
    if h.past_is_a then (h.surv_b, h.surv_a) else (h.surv_a, h.surv_b)
  in
  to_region.ptr <- to_region.base;
  { stats = empty_stats (); to_region; past }

let in_from h p a =
  (a >= h.eden.base && a < h.eden.limit)
  || (a >= p.past.base && a < p.past.limit)

(* The age the object at [a] has once it survives this collection. *)
let next_age h a = Int.min (age h a + 1) Layout.age_mask

(* Move the [total]-word object at [from_addr] to [dest], which the
   caller's destination policy chose: copy it, refresh its age (clearing
   the remembered flag, which the scan re-establishes for promoted
   objects), count it, allocate it black if it was promoted and leave a
   forwarding pointer behind.  Returns the new oop. *)
let move h p from_addr ~total ~next_age dest =
  Array.blit h.mem from_addr h.mem dest total;
  let flags = h.mem.(dest) land (Layout.flag_raw lor Layout.flag_bytes) in
  h.mem.(dest) <-
    (total lsl Layout.size_shift) lor (next_age lsl Layout.age_shift) lor flags;
  let stats = p.stats in
  if dest < h.new_base then begin
    stats.tenured_objects <- stats.tenured_objects + 1;
    stats.tenured_words <- stats.tenured_words + total;
    (* allocate-black: a mid-cycle promotion must not be swept (E18) *)
    mark_old_alloc h dest
  end
  else begin
    stats.survivor_objects <- stats.survivor_objects + 1;
    stats.survivor_words <- stats.survivor_words + total
  end;
  let new_oop = Oop.of_addr dest in
  h.mem.(from_addr) <- Layout.forwarded_marker;
  h.mem.(from_addr + 1) <- new_oop;
  new_oop

(* Only objects in from-space — eden and the past survivor space — are
   copied, by the collector's [copy]; pointers into the future survivor
   space (already copied this scavenge) or old space pass through
   unchanged. *)
let forward h p copy (o : Oop.t) =
  if not (Oop.is_ptr o) then o
  else begin
    let a = Oop.addr o in
    if not (in_from h p a) then o
    else if h.mem.(a) = Layout.forwarded_marker then h.mem.(a + 1)
    else copy a
  end

(* Update every scannable field of the object at [a]; returns true if any
   field still refers to new space after forwarding. *)
let update_fields h p copy a =
  let limit = scan_limit h a in
  let base = a + Layout.header_words in
  let has_new = ref false in
  for i = 0 to limit - 1 do
    let v = h.mem.(base + i) in
    if is_new h v then begin
      let v' = forward h p copy v in
      h.mem.(base + i) <- v';
      if is_new h v' then has_new := true
    end
  done;
  !has_new

(* Clear an entry-table entry's flag ([remember] re-sets it if needed),
   update its fields and keep it if it still refers to new space. *)
let rescan_entry h p copy a =
  h.mem.(a) <- h.mem.(a) land lnot Layout.flag_remembered;
  if update_fields h p copy a then remember h a

(* Finish a collection: the survivor spaces swap roles, eden empties and
   the heap's running totals take this pass's statistics. *)
let flip h p =
  let stats = p.stats in
  h.past_is_a <- not h.past_is_a;
  h.eden.ptr <- h.eden.base;
  Array.iter (fun r -> r.ptr <- r.base) h.eden_regions;
  h.scavenge_count <- h.scavenge_count + 1;
  h.words_copied_total <- h.words_copied_total + stats.survivor_words;
  h.tenured_words_total <- h.tenured_words_total + stats.tenured_words

(* The serial destination policy: the future survivor space while the
   object is young enough and fits, else old space through
   [alloc_old_addr] (free lists first, then the bump pointer).  A
   promotion into a swept hole lands below [promote_start], outside the
   Cheney cursor's window, so it is queued on [holes] as an explicit grey
   object, newest first. *)
let serial_copy h p ~promote_start holes from_addr =
  let total = size_words h from_addr in
  let next_age = next_age h from_addr in
  let to_region = p.to_region in
  let dest =
    if next_age < h.tenure_age && region_avail to_region >= total then begin
      let a = to_region.ptr in
      to_region.ptr <- a + total;
      a
    end
    else
      match alloc_old_addr h total with
      | None -> raise (Image_full "old space exhausted during scavenge")
      | Some a ->
          if a < promote_start then holes := a :: !holes;
          a
  in
  move h p from_addr ~total ~next_age dest

let scavenge h =
  let p = start_pass h in
  let to_region = p.to_region in
  let promote_start = h.old.ptr in
  let holes = ref [] in
  let copy = serial_copy h p ~promote_start holes in
  let stats = p.stats in
  (* 1. roots *)
  List.iter
    (fun cell ->
      stats.roots_scanned <- stats.roots_scanned + 1;
      cell := forward h p copy !cell)
    h.roots;
  List.iter
    (fun arr ->
      for i = 0 to Array.length arr - 1 do
        stats.roots_scanned <- stats.roots_scanned + 1;
        arr.(i) <- forward h p copy arr.(i)
      done)
    h.array_roots;
  (* 2. the entry table: update old objects' fields, keeping only entries
     that still refer to new space.  [remember] may reallocate the array,
     so iterate over a snapshot. *)
  let old_rset = h.rset in
  let old_rset_len = h.rset_len in
  h.rset_len <- 0;
  for i = 0 to old_rset_len - 1 do
    stats.remembered_scanned <- stats.remembered_scanned + 1;
    rescan_entry h p copy old_rset.(i)
  done;
  (* 3. Cheney scan of the two gray regions: fresh survivors and objects
     promoted during this scavenge *)
  let to_scan = ref to_region.base in
  let old_scan = ref promote_start in
  let progress = ref true in
  while !progress do
    progress := false;
    while !to_scan < to_region.ptr do
      progress := true;
      let a = !to_scan in
      ignore (update_fields h p copy a);
      to_scan := a + size_words h a
    done;
    while !old_scan < h.old.ptr do
      progress := true;
      let a = !old_scan in
      if update_fields h p copy a then remember h a;
      old_scan := a + size_words h a
    done;
    while !holes <> [] do
      progress := true;
      let batch = !holes in
      holes := [];
      List.iter (fun a -> if update_fields h p copy a then remember h a) batch
    done
  done;
  flip h p;
  stats

(* Cycle cost of a scavenge under the cost model; charged to every parked
   processor by the engine (the collection is stop-the-world). *)
let cost (cm : Cost_model.t) (stats : scavenge_stats) =
  cm.scavenge_base
  + (cm.scavenge_per_word * (stats.survivor_words + stats.tenured_words))
  + (cm.scavenge_per_remembered * stats.remembered_scanned)

(* ==================== parallel scavenging (E10) ====================

   A simulated multi-worker Cheney scavenge.  The roots and the
   entry-table snapshot are sharded deterministically across [workers]
   virtual workers; each worker copies into private to-space/old-space
   allocation buffers chunk-claimed from the shared regions (the abandoned
   tail of a buffer is sealed with a filler pseudo-object so every region
   still tiles exactly); the forwarding slot acts as the claim: the first
   worker to reach a from-space object copies it, everyone else reads the
   forwarding pointer.  Grey objects are scanned in rounds — each worker
   scans what it copied, idle workers steal half of the largest backlog at
   the round boundary, and the collection terminates when a round finds
   every queue empty.  Each worker accrues its own cycle timeline from the
   cost model, so the stop-the-world pause is the slowest worker's
   timeline plus the per-round barrier costs: speedup, load imbalance and
   coordination overhead all emerge from the simulation rather than from a
   closed-form divide. *)

type worker_stat = {
  worker : int;
  mutable copied_objects : int;
  mutable copied_words : int;
  mutable entries_scanned : int;
  mutable chunks_claimed : int;
  mutable steals : int;
  mutable copy_cycles : int;   (* copying survivors/tenures *)
  mutable scan_cycles : int;   (* entry-table rescan *)
  mutable coord_cycles : int;  (* claims, chunk claims, steals *)
  mutable busy_cycles : int;   (* copy + scan + coord, filled at the end *)
  mutable idle_cycles : int;   (* slowest worker's busy - own, at the end *)
}

type parallel_result = {
  workers : int;
  rounds : int;
  pause_cycles : int;          (* base + max worker timeline + barriers *)
  barrier_cycles : int;
  coordination_cycles : int;   (* claims + chunks + steals + barriers *)
  worker_stats : worker_stat array;
  degraded : bool;             (* a worker died; survivors finished *)
  failed_workers : int list;   (* in order of death *)
}

(* Coordination costs, derived from the cost model: claiming an object is
   an interlocked test-and-set on its header (the store-check cost),
   claiming a buffer chunk bumps the shared region pointer under an
   interlock, a steal is ready-queue-style surgery on another worker's
   backlog, and the per-round barrier is a Delay-quantum rendezvous plus
   one interlocked arrival per worker. *)
let chunk_words = 128
let claim_cost (cm : Cost_model.t) = cm.store_check
let chunk_claim_cost (cm : Cost_model.t) = 2 * cm.lock_acquire
let steal_cost (cm : Cost_model.t) = cm.sched_op + cm.lock_acquire
let barrier_cost (cm : Cost_model.t) ~workers =
  cm.delay_quantum + (workers * cm.lock_acquire)

(* A worker's private allocation buffer: a chunk of a shared region. *)
type buf = { mutable bptr : int; mutable blimit : int }

type wstate = {
  st : worker_stat;
  to_buf : buf;
  old_buf : buf;
  mutable grey : int list;  (* copied but unscanned, newest first *)
}

let make_wstate i =
  { st =
      { worker = i; copied_objects = 0; copied_words = 0; entries_scanned = 0;
        chunks_claimed = 0; steals = 0; copy_cycles = 0; scan_cycles = 0;
        coord_cycles = 0; busy_cycles = 0; idle_cycles = 0 };
    to_buf = { bptr = 0; blimit = 0 };
    old_buf = { bptr = 0; blimit = 0 };
    grey = [] }

(* Dead padding over the unused tail of an abandoned buffer; the filler
   writer lives in [Heap] and is shared with the incremental sweep. *)
let seal h b =
  let rem = b.blimit - b.bptr in
  if rem > 0 then write_filler h b.bptr rem;
  b.bptr <- b.blimit

(* Charge worker [w] for claiming the chunk [base, limit) and register it
   with the sanitizer's copy check. *)
let claim_chunk san cm w ~base ~limit =
  w.st.chunks_claimed <- w.st.chunks_claimed + 1;
  w.st.coord_cycles <- w.st.coord_cycles + chunk_claim_cost cm;
  Sanitizer.scavenge_chunk san ~worker:w.st.worker ~base ~limit

(* Allocate [total] words for worker [w] out of [buf], chunk-claiming from
   the shared [region] when the buffer runs dry; [None] when the region
   itself cannot supply the object (the caller promotes or fails). *)
let alloc_in h san cm w buf region total =
  if buf.blimit - buf.bptr >= total then begin
    let a = buf.bptr in
    buf.bptr <- a + total;
    Some a
  end
  else if region_avail region >= total then begin
    seal h buf;
    let size = Int.min (Int.max chunk_words total) (region_avail region) in
    let base = region.ptr in
    region.ptr <- base + size;
    buf.bptr <- base + total;
    buf.blimit <- base + size;
    claim_chunk san cm w ~base ~limit:(base + size);
    Some base
  end
  else None

(* The parallel destination policy: claim and copy the object at
   [from_addr] into [w]'s buffers.  Promotion goes through the worker's
   old-space buffer first and the swept holes only once bump headroom is
   gone.  The caller has already checked the forwarding slot, so in the
   simulated interleaving this worker wins the claim. *)
let parallel_copy h san cm p w from_addr =
  let total = size_words h from_addr in
  let next_age = next_age h from_addr in
  let promote () =
    match alloc_in h san cm w w.old_buf h.old total with
    | Some a -> a
    | None -> (
        (* A hole is a one-object chunk — register it so the copy check
           passes. *)
        match free_take h total with
        | Some a ->
            claim_chunk san cm w ~base:a ~limit:(a + total);
            a
        | None -> raise (Image_full "old space exhausted during scavenge"))
  in
  let dest =
    if next_age >= h.tenure_age then promote ()
    else
      match alloc_in h san cm w w.to_buf p.to_region total with
      | Some a -> a
      | None -> promote ()
  in
  let new_oop = move h p from_addr ~total ~next_age dest in
  Sanitizer.scavenge_claim san ~worker:w.st.worker ~addr:from_addr;
  Sanitizer.scavenge_copy san ~worker:w.st.worker ~addr:dest ~words:total;
  w.st.copied_objects <- w.st.copied_objects + 1;
  w.st.copied_words <- w.st.copied_words + total;
  w.st.copy_cycles <- w.st.copy_cycles + (cm.Cost_model.scavenge_per_word * total);
  w.st.coord_cycles <- w.st.coord_cycles + claim_cost cm;
  w.grey <- dest :: w.grey;
  new_oop

(* Split the first [n] elements off a list. *)
let rec split_at n l =
  if n <= 0 then ([], l)
  else
    match l with
    | [] -> ([], [])
    | x :: rest ->
        let taken, left = split_at (n - 1) rest in
        (x :: taken, left)

let scavenge_parallel h (cm : Cost_model.t) ?injector ~workers () =
  let workers = Int.max 1 workers in
  let p = start_pass h in
  let stats = p.stats in
  let san = h.sanitizer in
  Sanitizer.scavenge_begin san ~workers;
  let ws = Array.init workers make_wstate in
  (* Worker-failure bookkeeping.  A worker can only die at a round
     barrier (that is where failure is detected anyway: a dead worker is
     one that never arrives), and only while at least one other worker
     survives.  Its allocation buffers are sealed — the heap stays tiled,
     no matter where the worker was — and its grey backlog is handed to
     the lowest-id survivor, so the collection degrades toward the serial
     algorithm instead of losing reachable objects. *)
  let dead = Array.make workers false in
  let failed = ref [] in
  let recovery_barrier_cycles = ref 0 in
  let live_ids () =
    let ids = ref [] in
    for i = workers - 1 downto 0 do
      if not dead.(i) then ids := i :: !ids
    done;
    !ids
  in
  let maybe_kill_worker ~round =
    match injector with
    | None -> ()
    | Some inj -> (
        match Fault.at inj Fault.Gc_barrier with
        | Some (Fault.Worker_crash k as f) ->
            let live = live_ids () in
            let n = List.length live in
            if n > 1 then begin
              let victim = List.nth live (k mod n) in
              Fault.applied inj f;
              Sanitizer.fault_event san ~vp:victim ~now:(-1)
                ~resource:"parallel scavenge"
                (Printf.sprintf
                   "worker %d died at the round-%d barrier; %d survive"
                   victim round (n - 1));
              dead.(victim) <- true;
              failed := victim :: !failed;
              let v = ws.(victim) in
              seal h v.to_buf;
              seal h v.old_buf;
              let heir =
                List.hd (List.filter (fun i -> not dead.(i)) live)
              in
              ws.(heir).grey <- ws.(heir).grey @ v.grey;
              v.grey <- [];
              (* adopting the orphaned backlog is queue surgery, like a
                 steal; the survivors also pay one extra barrier noticing
                 the missing arrival before declaring it dead *)
              ws.(heir).st.coord_cycles <-
                ws.(heir).st.coord_cycles + steal_cost cm;
              recovery_barrier_cycles :=
                !recovery_barrier_cycles + barrier_cost cm ~workers
            end
        | Some _ | None -> ())
  in
  (* Round 0: deterministic sharding.  Root item [i] and entry-table
     entry [i] both go to worker [i mod workers]; each worker processes
     its whole shard (so the claim interleaving is fixed by worker id).
     Root items are numbered in the order they were registered: every
     array root's slots, then every root cell. *)
  let rec iter_oldest_first f = function
    | [] -> ()
    | x :: rest -> iter_oldest_first f rest; f x
  in
  (* A real copy, not the serial scavenge's aliasing snapshot: sharded
     workers read entries out of order, so a re-[remember] from one worker
     (which appends at the low indices of [h.rset]) must not clobber
     entries another worker has yet to scan. *)
  let old_rset = Array.sub h.rset 0 h.rset_len in
  h.rset_len <- 0;
  Array.iter
    (fun w ->
      let wid = w.st.worker in
      let copy = parallel_copy h san cm p w in
      let item = ref (-1) in
      let mine () =
        incr item;
        let m = !item mod workers = wid in
        if m then stats.roots_scanned <- stats.roots_scanned + 1;
        m
      in
      iter_oldest_first
        (fun arr ->
          for j = 0 to Array.length arr - 1 do
            if mine () then arr.(j) <- forward h p copy arr.(j)
          done)
        h.array_roots;
      iter_oldest_first
        (fun cell -> if mine () then cell := forward h p copy !cell)
        h.roots;
      Array.iteri
        (fun i a ->
          if i mod workers = wid then begin
            stats.remembered_scanned <- stats.remembered_scanned + 1;
            w.st.entries_scanned <- w.st.entries_scanned + 1;
            w.st.scan_cycles <-
              w.st.scan_cycles + cm.Cost_model.scavenge_per_remembered;
            rescan_entry h p copy a
          end)
        old_rset)
    ws;
  (* Grey rounds: every worker scans what it copied; newly copied objects
     join the copier's next-round backlog.  At each round boundary the
     termination check doubles as the work-distribution point: a worker
     arriving with an empty queue steals half of the largest backlog. *)
  let rounds = ref 0 in
  let barrier_cycles = ref 0 in
  let live = ref (Array.exists (fun w -> w.grey <> []) ws) in
  while !live do
    incr rounds;
    barrier_cycles := !barrier_cycles + barrier_cost cm ~workers;
    maybe_kill_worker ~round:!rounds;
    Array.iter
      (fun thief ->
        if (not dead.(thief.st.worker)) && thief.grey = [] then begin
          let victim = ref None in
          Array.iter
            (fun v ->
              if dead.(v.st.worker) then ()
              else begin
                let n = List.length v.grey in
                match !victim with
                | Some (_, best) when best >= n -> ()
                | _ -> if n >= 2 then victim := Some (v, n)
              end)
            ws;
          match !victim with
          | Some (v, n) ->
              let stolen, kept = split_at (n / 2) v.grey in
              v.grey <- kept;
              thief.grey <- stolen;
              thief.st.steals <- thief.st.steals + 1;
              thief.st.coord_cycles <- thief.st.coord_cycles + steal_cost cm
          | None -> ()
        end)
      ws;
    Array.iter
      (fun w ->
        (* a dead worker's backlog was funnelled to a survivor on death *)
        let batch = if dead.(w.st.worker) then [] else List.rev w.grey in
        w.grey <- [];
        let copy = parallel_copy h san cm p w in
        List.iter
          (fun a ->
            (* promoted during this scavenge: old objects that still refer
               to new space re-enter the entry table *)
            if update_fields h p copy a && a < h.new_base then remember h a)
          batch)
      ws;
    live :=
      Array.exists (fun w -> (not dead.(w.st.worker)) && w.grey <> []) ws
  done;
  (* Seal every worker's open buffer so to-space and old space tile. *)
  Array.iter
    (fun w ->
      seal h w.to_buf;
      seal h w.old_buf)
    ws;
  Sanitizer.scavenge_end san;
  flip h p;
  (* the pause is the slowest worker's timeline plus the barriers *)
  Array.iter
    (fun w ->
      w.st.busy_cycles <-
        w.st.copy_cycles + w.st.scan_cycles + w.st.coord_cycles)
    ws;
  let max_busy = Array.fold_left (fun m w -> Int.max m w.st.busy_cycles) 0 ws in
  Array.iter (fun w -> w.st.idle_cycles <- max_busy - w.st.busy_cycles) ws;
  let barrier_cycles = !barrier_cycles + !recovery_barrier_cycles in
  let coordination_cycles =
    Array.fold_left (fun n w -> n + w.st.coord_cycles) barrier_cycles ws
  in
  ( stats,
    { workers;
      rounds = !rounds;
      pause_cycles = cm.Cost_model.scavenge_base + max_busy + barrier_cycles;
      barrier_cycles;
      coordination_cycles;
      worker_stats = Array.map (fun w -> w.st) ws;
      degraded = !failed <> [];
      failed_workers = List.rev !failed } )
