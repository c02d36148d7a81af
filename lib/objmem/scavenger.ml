(* Generation Scavenging (Ungar '84), as used by Berkeley Smalltalk: a
   stop-and-copy collection of new space only.  Live new objects are copied
   from eden and the past survivor space into the future survivor space
   (Cheney's algorithm); objects that have survived [tenure_age] scavenges,
   or that overflow the survivor space, are promoted into old space.  Old
   space is never collected; the entry table (remembered set) supplies the
   old-to-new roots.

   Because contexts keep their evaluation stack inside the object, only the
   live portion — [stackp] frame slots — is scanned; the slots above the
   stack pointer hold stale oops from popped values.

   The caller (the engine) is responsible for the multiprocessor rendezvous:
   every interpreter must be parked before [scavenge] runs, and the
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
      min n live
    end else n
  end

type space_choice = To_space | Promoted

(* Copy the object at [from_addr]; returns its new oop. *)
let copy_object h stats to_region from_addr =
  let total = size_words h from_addr in
  let next_age = min (age h from_addr + 1) Layout.age_mask in
  let choice =
    if next_age >= h.tenure_age || region_avail to_region < total
    then Promoted else To_space
  in
  let dest =
    match choice with
    | To_space ->
        let a = to_region.ptr in
        to_region.ptr <- to_region.ptr + total;
        stats.survivor_objects <- stats.survivor_objects + 1;
        stats.survivor_words <- stats.survivor_words + total;
        a
    | Promoted -> (
        match promote_alloc h total with
        | None -> raise (Image_full "old space exhausted during scavenge")
        | Some a ->
            stats.tenured_objects <- stats.tenured_objects + 1;
            stats.tenured_words <- stats.tenured_words + total;
            a)
  in
  Array.blit h.mem from_addr h.mem dest total;
  (* refresh age; clear the remembered flag on the copy (re-established by
     the post-scan check for promoted objects) *)
  let flags =
    h.mem.(dest) land (Layout.flag_raw lor Layout.flag_bytes)
  in
  h.mem.(dest) <-
    (total lsl Layout.size_shift) lor (next_age lsl Layout.age_shift) lor flags;
  (* allocate-black: a mid-cycle promotion must not be swept (E18) *)
  if choice = Promoted then mark_old_alloc h dest;
  (* install forwarding *)
  let new_oop = Oop.of_addr dest in
  h.mem.(from_addr) <- Layout.forwarded_marker;
  h.mem.(from_addr + 1) <- new_oop;
  new_oop

(* Only objects in from-space — eden and the past survivor space — are
   copied; pointers into the future survivor space (already copied this
   scavenge) or old space pass through unchanged. *)
let forward h stats ~in_from to_region (o : Oop.t) =
  if not (Oop.is_ptr o) then o
  else begin
    let a = Oop.addr o in
    if not (in_from a) then o
    else if h.mem.(a) = Layout.forwarded_marker then h.mem.(a + 1)
    else copy_object h stats to_region a
  end

(* Update every scannable field of the object at [a]; returns true if any
   field still refers to new space after forwarding. *)
let update_fields h stats ~in_from to_region a =
  let limit = scan_limit h a in
  let base = a + Layout.header_words in
  let has_new = ref false in
  for i = 0 to limit - 1 do
    let v = h.mem.(base + i) in
    if is_new h v then begin
      let v' = forward h stats ~in_from to_region v in
      h.mem.(base + i) <- v';
      if is_new h v' then has_new := true
    end
  done;
  !has_new

let scavenge h =
  List.iter (fun hook -> hook ()) h.on_scavenge;
  let stats = empty_stats () in
  let to_region = if h.past_is_a then h.surv_b else h.surv_a in
  let past = if h.past_is_a then h.surv_a else h.surv_b in
  let in_from a =
    (a >= h.eden.base && a < h.eden.limit)
    || (a >= past.base && a < past.limit)
  in
  to_region.ptr <- to_region.base;
  let promote_start = h.old.ptr in
  h.scavenge_holes <- [];
  (* 1. roots *)
  List.iter
    (fun cell ->
      stats.roots_scanned <- stats.roots_scanned + 1;
      cell := forward h stats ~in_from to_region !cell)
    h.roots;
  List.iter
    (fun arr ->
      for i = 0 to Array.length arr - 1 do
        stats.roots_scanned <- stats.roots_scanned + 1;
        arr.(i) <- forward h stats ~in_from to_region arr.(i)
      done)
    h.array_roots;
  (* 2. the entry table: update old objects' fields, keeping only entries
     that still refer to new space.  [remember] may reallocate the array,
     so iterate over a snapshot. *)
  let old_rset = h.rset in
  let old_rset_len = h.rset_len in
  h.rset_len <- 0;
  for i = 0 to old_rset_len - 1 do
    let a = old_rset.(i) in
    stats.remembered_scanned <- stats.remembered_scanned + 1;
    (* clear the flag; [remember] below re-sets it if needed *)
    h.mem.(a) <- h.mem.(a) land lnot Layout.flag_remembered;
    if update_fields h stats ~in_from to_region a then remember h a
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
      ignore (update_fields h stats ~in_from to_region a);
      to_scan := a + size_words h a
    done;
    while !old_scan < h.old.ptr do
      progress := true;
      let a = !old_scan in
      if update_fields h stats ~in_from to_region a then remember h a;
      old_scan := a + size_words h a
    done;
    (* promotions satisfied from swept holes land below [promote_start],
       outside the cursor's window, so they are queued as explicit greys *)
    while h.scavenge_holes <> [] do
      progress := true;
      let batch = h.scavenge_holes in
      h.scavenge_holes <- [];
      List.iter
        (fun a -> if update_fields h stats ~in_from to_region a then remember h a)
        batch
    done
  done;
  (* 4. flip *)
  h.past_is_a <- not h.past_is_a;
  h.eden.ptr <- h.eden.base;
  Array.iter (fun r -> r.ptr <- r.base) h.eden_regions;
  h.scavenge_count <- h.scavenge_count + 1;
  h.words_copied_total <- h.words_copied_total + stats.survivor_words;
  h.tenured_words_total <- h.tenured_words_total + stats.tenured_words;
  h.last_scavenge <- stats;
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

(* Allocate [total] words for worker [w] out of [buf], chunk-claiming from
   the shared [region] when the buffer runs dry; [None] when the region
   itself cannot supply the object (the caller promotes or fails). *)
let alloc_in h san (cm : Cost_model.t) w buf region total =
  if buf.blimit - buf.bptr >= total then begin
    let a = buf.bptr in
    buf.bptr <- a + total;
    Some a
  end
  else if region_avail region >= total then begin
    seal h buf;
    let size = min (max chunk_words total) (region_avail region) in
    let base = region.ptr in
    region.ptr <- base + size;
    buf.bptr <- base + total;
    buf.blimit <- base + size;
    w.st.chunks_claimed <- w.st.chunks_claimed + 1;
    w.st.coord_cycles <- w.st.coord_cycles + chunk_claim_cost cm;
    (match san with
     | Some s ->
         Sanitizer.scavenge_chunk s ~worker:w.st.worker ~base
           ~limit:(base + size)
     | None -> ());
    Some base
  end
  else None

(* Claim and copy the object at [from_addr] into [w]'s buffers; the
   caller has already checked the forwarding slot, so in the simulated
   interleaving this worker wins the claim. *)
let copy_object_par h san cm stats to_region w from_addr =
  let total = size_words h from_addr in
  let next_age = min (age h from_addr + 1) Layout.age_mask in
  let promote () =
    let dest =
      match alloc_in h san cm w w.old_buf h.old total with
      | Some a -> Some a
      | None -> (
          (* bump headroom is gone: try the swept holes.  A hole is a
             one-object chunk — register it so the copy check passes. *)
          match free_take h total with
          | Some a ->
              w.st.chunks_claimed <- w.st.chunks_claimed + 1;
              w.st.coord_cycles <- w.st.coord_cycles + chunk_claim_cost cm;
              (match san with
               | Some s ->
                   Sanitizer.scavenge_chunk s ~worker:w.st.worker ~base:a
                     ~limit:(a + total)
               | None -> ());
              Some a
          | None -> None)
    in
    match dest with
    | Some a ->
        stats.tenured_objects <- stats.tenured_objects + 1;
        stats.tenured_words <- stats.tenured_words + total;
        a
    | None -> raise (Image_full "old space exhausted during scavenge")
  in
  let dest =
    if next_age >= h.tenure_age then promote ()
    else
      match alloc_in h san cm w w.to_buf to_region total with
      | Some a ->
          stats.survivor_objects <- stats.survivor_objects + 1;
          stats.survivor_words <- stats.survivor_words + total;
          a
      | None -> promote ()
  in
  Array.blit h.mem from_addr h.mem dest total;
  let flags = h.mem.(dest) land (Layout.flag_raw lor Layout.flag_bytes) in
  h.mem.(dest) <-
    (total lsl Layout.size_shift) lor (next_age lsl Layout.age_shift) lor flags;
  (* allocate-black: a mid-cycle promotion must not be swept (E18) *)
  if dest < h.new_base then mark_old_alloc h dest;
  let new_oop = Oop.of_addr dest in
  (match san with
   | Some s ->
       Sanitizer.scavenge_claim s ~worker:w.st.worker ~addr:from_addr;
       Sanitizer.scavenge_copy s ~worker:w.st.worker ~addr:dest ~words:total
   | None -> ());
  h.mem.(from_addr) <- Layout.forwarded_marker;
  h.mem.(from_addr + 1) <- new_oop;
  w.st.copied_objects <- w.st.copied_objects + 1;
  w.st.copied_words <- w.st.copied_words + total;
  w.st.copy_cycles <- w.st.copy_cycles + (cm.Cost_model.scavenge_per_word * total);
  w.st.coord_cycles <- w.st.coord_cycles + claim_cost cm;
  w.grey <- dest :: w.grey;
  new_oop

let forward_par h san cm stats ~in_from to_region w (o : Oop.t) =
  if not (Oop.is_ptr o) then o
  else begin
    let a = Oop.addr o in
    if not (in_from a) then o
    else if h.mem.(a) = Layout.forwarded_marker then h.mem.(a + 1)
    else copy_object_par h san cm stats to_region w a
  end

let update_fields_par h san cm stats ~in_from to_region w a =
  let limit = scan_limit h a in
  let base = a + Layout.header_words in
  let has_new = ref false in
  for i = 0 to limit - 1 do
    let v = h.mem.(base + i) in
    if is_new h v then begin
      let v' = forward_par h san cm stats ~in_from to_region w v in
      h.mem.(base + i) <- v';
      if is_new h v' then has_new := true
    end
  done;
  !has_new

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
  let workers = max 1 workers in
  List.iter (fun hook -> hook ()) h.on_scavenge;
  let san = h.sanitizer in
  let stats = empty_stats () in
  let to_region = if h.past_is_a then h.surv_b else h.surv_a in
  let past = if h.past_is_a then h.surv_a else h.surv_b in
  let in_from a =
    (a >= h.eden.base && a < h.eden.limit)
    || (a >= past.base && a < past.limit)
  in
  to_region.ptr <- to_region.base;
  (match san with
   | Some s -> Sanitizer.scavenge_begin s ~workers
   | None -> ());
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
              Fault.applied inj ~vp:victim ~now:(-1)
                ~resource:"parallel scavenge" f;
              (match san with
               | Some s ->
                   Sanitizer.fault_event s ~vp:victim ~now:(-1)
                     ~resource:"parallel scavenge"
                     (Printf.sprintf
                        "worker %d died at the round-%d barrier; %d survive"
                        victim round (n - 1))
               | None -> ());
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
     its whole shard (so the claim interleaving is fixed by worker id). *)
  let root_items =
    let items = ref [] in
    List.iter (fun cell -> items := `Cell cell :: !items) h.roots;
    List.iter
      (fun arr ->
        for i = Array.length arr - 1 downto 0 do
          items := `Slot (arr, i) :: !items
        done)
      h.array_roots;
    Array.of_list !items
  in
  (* A real copy, not the serial scavenge's aliasing snapshot: sharded
     workers read entries out of order, so a re-[remember] from one worker
     (which appends at the low indices of [h.rset]) must not clobber
     entries another worker has yet to scan. *)
  let old_rset = Array.sub h.rset 0 h.rset_len in
  let old_rset_len = h.rset_len in
  h.rset_len <- 0;
  Array.iter
    (fun w ->
      let wid = w.st.worker in
      Array.iteri
        (fun i item ->
          if i mod workers = wid then begin
            stats.roots_scanned <- stats.roots_scanned + 1;
            match item with
            | `Cell cell ->
                cell := forward_par h san cm stats ~in_from to_region w !cell
            | `Slot (arr, j) ->
                arr.(j) <-
                  forward_par h san cm stats ~in_from to_region w arr.(j)
          end)
        root_items;
      for i = 0 to old_rset_len - 1 do
        if i mod workers = wid then begin
          let a = old_rset.(i) in
          stats.remembered_scanned <- stats.remembered_scanned + 1;
          w.st.entries_scanned <- w.st.entries_scanned + 1;
          w.st.scan_cycles <-
            w.st.scan_cycles + cm.Cost_model.scavenge_per_remembered;
          (* clear the flag; [remember] below re-sets it if needed *)
          h.mem.(a) <- h.mem.(a) land lnot Layout.flag_remembered;
          if update_fields_par h san cm stats ~in_from to_region w a then
            remember h a
        end
      done)
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
        List.iter
          (fun a ->
            if a < h.new_base then begin
              (* promoted during this scavenge: old objects that still
                 refer to new space re-enter the entry table *)
              if update_fields_par h san cm stats ~in_from to_region w a then
                remember h a
            end
            else
              ignore (update_fields_par h san cm stats ~in_from to_region w a))
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
  (match san with Some s -> Sanitizer.scavenge_end s | None -> ());
  (* flip, exactly as the serial scavenge *)
  h.past_is_a <- not h.past_is_a;
  h.eden.ptr <- h.eden.base;
  Array.iter (fun r -> r.ptr <- r.base) h.eden_regions;
  h.scavenge_count <- h.scavenge_count + 1;
  h.words_copied_total <- h.words_copied_total + stats.survivor_words;
  h.tenured_words_total <- h.tenured_words_total + stats.tenured_words;
  h.last_scavenge <- stats;
  (* the pause is the slowest worker's timeline plus the barriers *)
  Array.iter
    (fun w ->
      w.st.busy_cycles <-
        w.st.copy_cycles + w.st.scan_cycles + w.st.coord_cycles)
    ws;
  let max_busy = Array.fold_left (fun m w -> max m w.st.busy_cycles) 0 ws in
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
