(* Incremental old-space mark-sweep (E18).

   Generation Scavenging never collects old space, so a long-running image
   leaks tenured garbage until [Image_full].  This collector reclaims it
   without a stop-the-world pause: tricolor marking runs in bounded work
   slices at interpreter step boundaries, a Dijkstra-style
   incremental-update write barrier (piggybacked on the store check in
   [Heap.store_ptr]) shades every pointer the mutator stores, and the
   sweep threads reclaimed holes onto the heap's size-segregated free
   lists, which [Heap.alloc_old] consults before bumping.

   Mark state lives in a side bitmap over old-space addresses — every
   header flag bit is taken — owned by this module, not the heap.

   Concurrent-correctness obligations, and where they are discharged:
   - stores that bypass [Heap.store_ptr] (scheduler queue surgery,
     free-context threading) call [Heap.major_note] themselves;
   - objects entering old space mid-cycle (direct allocation, scavenge
     promotion) are allocated black via [Heap.mark_old_alloc];
   - new space is scanned linearly and conservatively (every new object's
     fields shade their old targets); a scavenge moves new space, so the
     incremental scan restarts when [scavenge_count] changes — but once
     the scan has completed it stays complete: the scavenge copies fields
     verbatim (their targets are already shaded), promotions are
     allocate-black, and every subsequent pointer store is barriered;
   - the final root rescan happens inside the same slice as the
     termination check, so no mutator step can re-dirty a root between
     the two. *)

open Heap

type phase = Idle | Marking | Sweeping

type t = {
  heap : Heap.t;
  budget : int;
  (* extra roots beyond [heap.roots]/[heap.array_roots]: universe tables,
     free-context list heads, scheduler deques — supplied by the VM *)
  iter_roots : (Oop.t -> unit) -> unit;
  marks : Bytes.t;  (* one bit per old-space word address *)
  mutable phase : phase;
  (* marked, fields not yet scanned: a stack of addresses in an int
     array, so shading allocates nothing *)
  mutable grey : int array;
  mutable grey_len : int;
  mutable roots_done : bool;
  (* incremental new-space scan: region index, cursor, and the scavenge
     epoch it is valid for *)
  mutable ns_ri : int;
  mutable ns_addr : int;
  mutable ns_epoch : int;
  mutable ns_done : bool;
  mutable sweep_cursor : int;
  mutable root_cost : int;  (* the last root scan's cost, for the rescan gate *)
  mutable next_slice_at : int;  (* pacing: no slice before this time *)
  (* the two start triggers as thresholds, so [due] is two compares:
     the old-space occupancy, and the [tenured_words_total] that the
     growth since the last cycle's start or end must reach *)
  start_used : int;
  mutable start_tenured : int;
  (* statistics *)
  mutable cycles_completed : int;
  mutable slices : int;
  mutable slice_cycles_total : int;
  mutable max_slice : int;
  mutable overruns : int;
      (* slices that ran past the budget — only an atomic root scan or a
         lone oversized object can cause one (see [admit]) *)
  mutable slice_costs : int list;  (* newest first *)
  mutable reclaimed_objects : int;
  mutable reclaimed_words : int;
  mutable forced_completions : int;
  mutable barrier_greys : int;  (* objects shaded by the write barrier *)
  mutable alloc_marks : int;  (* objects allocated black mid-cycle *)
}

(* Tenured growth that starts a cycle: 1/64 of old space, at least 2048
   words. *)
let growth_trigger heap = Int.max 2048 ((heap.old.limit - heap.old.base) / 64)

let create ~heap ~budget ~iter_roots =
  let old_words = heap.old.limit - heap.old.base in
  {
    heap;
    budget = Int.max 1 budget;
    iter_roots;
    marks = Bytes.make ((heap.new_base + 7) / 8) '\000';
    phase = Idle;
    grey = Array.make 256 0;
    grey_len = 0;
    roots_done = false;
    ns_ri = 0;
    ns_addr = min_int;
    ns_epoch = -1;
    ns_done = false;
    sweep_cursor = 0;
    root_cost = 0;
    next_slice_at = 0;
    (* the least occupancy [u] with [u * 1000 >= 600 * old_words] *)
    start_used = ((600 * old_words) + 999) / 1000;
    start_tenured = growth_trigger heap;
    cycles_completed = 0;
    slices = 0;
    slice_cycles_total = 0;
    max_slice = 0;
    overruns = 0;
    slice_costs = [];
    reclaimed_objects = 0;
    reclaimed_words = 0;
    forced_completions = 0;
    barrier_greys = 0;
    alloc_marks = 0;
  }

let phase t = t.phase
let active t = t.phase <> Idle
let budget t = t.budget

(* --- the mark bitmap --- *)

let marked t a =
  Char.code (Bytes.unsafe_get t.marks (a lsr 3)) land (1 lsl (a land 7)) <> 0

let set_mark t a =
  let i = a lsr 3 in
  Bytes.unsafe_set t.marks i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.marks i) lor (1 lsl (a land 7))))

(* --- shading --- *)

let push_grey t a =
  if t.grey_len = Array.length t.grey then begin
    let bigger = Array.make (2 * t.grey_len) 0 in
    Array.blit t.grey 0 bigger 0 t.grey_len;
    t.grey <- bigger
  end;
  t.grey.(t.grey_len) <- a;
  t.grey_len <- t.grey_len + 1

let shade t a =
  if not (marked t a) then begin
    set_mark t a;
    push_grey t a
  end

let shade_oop t (v : Oop.t) = if is_old t.heap v then shade t (Oop.addr v)

(* The write barrier: while marking, the stored value is shaded so no
   pointer to a white object can be hidden inside an already-scanned
   one.  Installed as [heap.major_dirty]; the heap calls it only while
   [set_phase] has [major_marking] on. *)
let dirty t (v : Oop.t) =
  if t.phase = Marking && is_old t.heap v then begin
    let a = Oop.addr v in
    if not (marked t a) then begin
      set_mark t a;
      push_grey t a;
      t.barrier_greys <- t.barrier_greys + 1
    end
  end

(* Allocate-black: an object entering old space mid-cycle must survive
   the in-flight collection; while marking it is also greyed, since a
   scavenge promotion carries fields that may not be shaded yet. *)
let alloc_black t a =
  if t.phase <> Idle && not (marked t a) then begin
    set_mark t a;
    if t.phase = Marking then push_grey t a;
    t.alloc_marks <- t.alloc_marks + 1
  end

(* --- triggering --- *)

let old_words t = t.heap.old.limit - t.heap.old.base

(* Start a cycle when occupancy passes 60% of old space, or when tenured
   growth since the last cycle passes a fraction of it. *)
let want_start t =
  t.phase = Idle
  && (old_used t.heap >= t.start_used
      || t.heap.tenured_words_total >= t.start_tenured)

(* Re-arm the growth trigger from the current tenured total. *)
let rearm t = t.start_tenured <- t.heap.tenured_words_total + growth_trigger t.heap

(* Phase changes also tell the heap whether the write barrier is live. *)
let set_phase t phase =
  t.phase <- phase;
  t.heap.major_marking <- phase = Marking

let near_exhaustion t = old_used t.heap * 1000 >= 900 * old_words t

let due t ~now = now >= t.next_slice_at && (active t || want_start t)

(* --- the mark phase --- *)

let run_flush_hooks t = List.iter (fun hook -> hook ()) t.heap.on_scavenge

let start_cycle t =
  Bytes.fill t.marks 0 (Bytes.length t.marks) '\000';
  t.grey_len <- 0;
  t.roots_done <- false;
  t.ns_ri <- 0;
  t.ns_addr <- min_int;
  t.ns_epoch <- -1;
  t.ns_done <- false;
  rearm t;
  set_phase t Marking;
  (* cached method lookups and decodes must not carry oops across the
     cycle unscanned; the scavenge flush hooks drop them all *)
  run_flush_hooks t

let iter_roots t f =
  List.iter (fun cell -> f !cell) t.heap.roots;
  List.iter (Array.iter f) t.heap.array_roots;
  t.iter_roots f

let scan_roots t =
  let n = ref 0 in
  iter_roots t (fun v ->
      incr n;
      shade_oop t v);
  !n

(* Budget admission with look-ahead: a work unit's cost is computed
   before the work is committed, and a unit that would push the slice
   past its budget ends the slice instead — except the slice's first
   unit, which always goes through (an object bigger than the whole
   budget must still be marked eventually, or the cycle could never
   terminate).  Overshoot is therefore zero for every slice that has
   already done work, and bounded by one unit otherwise. *)
let admit cost ~budget ~did unit =
  if !did && !cost + unit > budget then false
  else begin
    cost := !cost + unit;
    did := true;
    true
  end

(* The regions that make up scannable new space: the eden slices and the
   survivor space currently holding live objects. *)
let ns_regions t =
  let h = t.heap in
  let past = if h.past_is_a then h.surv_a else h.surv_b in
  Array.append h.eden_regions [| past |]

type mark_progress =
  | Stepped  (* one unit of mark work done *)
  | Blocked  (* the next unit does not fit the remaining budget *)
  | Drained  (* nothing grey and new space fully scanned *)

(* One unit of mark work: a grey old object, or — once the grey stack is
   empty — one new-space object of the incremental conservative scan
   (every object's fields shade their old targets, live or not; the scan
   restarts when a scavenge has moved new space under it). *)
let mark_one t (cm : Cost_model.t) cost ~budget ~did =
  let h = t.heap in
  if t.grey_len > 0 then begin
    let a = t.grey.(t.grey_len - 1) in
    let limit = Scavenger.scan_limit h a in
    let unit = cm.major_mark_per_object + (cm.major_mark_per_word * limit) in
    if not (admit cost ~budget ~did unit) then Blocked
    else begin
      t.grey_len <- t.grey_len - 1;
      (* the class pointer is not a scanned field, but it must survive
         as long as any instance does *)
      shade_oop t (class_at h a);
      let base = a + Layout.header_words in
      for i = 0 to limit - 1 do
        shade_oop t h.mem.(base + i)
      done;
      Stepped
    end
  end
  else if t.ns_done then Drained
  else begin
    (* a completed scan is not invalidated by a scavenge (see the
       header comment); only an in-progress one restarts *)
    if t.ns_epoch <> h.scavenge_count then begin
      t.ns_ri <- 0;
      t.ns_addr <- min_int;
      t.ns_epoch <- h.scavenge_count
    end;
    let regions = ns_regions t in
    (* advancing past exhausted regions costs nothing *)
    let rec step () =
      if t.ns_ri >= Array.length regions then begin
        t.ns_done <- true;
        Drained
      end
      else begin
        let r = regions.(t.ns_ri) in
        if t.ns_addr < r.base then t.ns_addr <- r.base;
        if t.ns_addr >= r.ptr then begin
          t.ns_ri <- t.ns_ri + 1;
          t.ns_addr <- min_int;
          step ()
        end
        else begin
          let a = t.ns_addr in
          let sz = size_words h a in
          if is_filler h a then begin
            if not (admit cost ~budget ~did cm.major_mark_per_object) then
              Blocked
            else begin
              t.ns_addr <- a + sz;
              Stepped
            end
          end
          else begin
            let limit = Scavenger.scan_limit h a in
            let unit =
              cm.major_mark_per_object + (cm.major_mark_per_word * limit)
            in
            if not (admit cost ~budget ~did unit) then Blocked
            else begin
              shade_oop t (class_at h a);
              let base = a + Layout.header_words in
              for i = 0 to limit - 1 do
                shade_oop t h.mem.(base + i)
              done;
              t.ns_addr <- a + sz;
              Stepped
            end
          end
        end
      end
    in
    step ()
  end

(* --- the sweep phase --- *)

(* Walk old space from the cursor, coalescing consecutive dead objects
   and fillers (including last cycle's holes) into maximal runs threaded
   onto the free lists.  A slice boundary flushes the current run, which
   can split a hole — harmless, both halves are threaded. *)
let sweep_step t (cm : Cost_model.t) cost ~budget ~did =
  let h = t.heap in
  let run_start = ref (-1) in
  let flush_run pos =
    if !run_start >= 0 then begin
      free_add h !run_start (pos - !run_start);
      run_start := -1
    end
  in
  let continue = ref true in
  while !continue && t.sweep_cursor < h.old.ptr do
    let a = t.sweep_cursor in
    let sz = size_words h a in
    if not (admit cost ~budget ~did (cm.major_sweep_per_word * sz)) then
      continue := false
    else begin
    if is_filler h a then begin
      if !run_start < 0 then run_start := a
    end
    else if marked t a then flush_run a
    else begin
      t.reclaimed_objects <- t.reclaimed_objects + 1;
      t.reclaimed_words <- t.reclaimed_words + sz;
      if is_remembered h a then rset_remove h a;
      if !run_start < 0 then run_start := a
    end;
    t.sweep_cursor <- a + sz
    end
  done;
  flush_run t.sweep_cursor

(* --- slices --- *)

type slice_result = {
  cost : int;
  mark_completed : bool;  (* marking finished; marks final, nothing swept *)
  cycle_completed : bool;  (* sweeping finished; the collector is idle *)
}

let slice_internal t (cm : Cost_model.t) ~budget =
  if t.phase = Idle then start_cycle t;
  let cost = ref cm.major_slice_base in
  let did = ref false in
  match t.phase with
  | Idle -> { cost = !cost; mark_completed = false; cycle_completed = false }
  | Marking ->
      if not t.roots_done then begin
        (* the root scan is atomic within one slice — root cells are
           OCaml-side and their writes are unbarriered — so its cost is
           taken whole, budget notwithstanding *)
        let n = scan_roots t in
        t.roots_done <- true;
        t.root_cost <- n * cm.major_mark_per_word;
        cost := !cost + t.root_cost;
        did := true
      end;
      let continue = ref true in
      while !continue && !cost < budget do
        match mark_one t cm cost ~budget ~did with
        | Stepped -> ()
        | Blocked | Drained -> continue := false
      done;
      let mark_completed =
        (* termination check: rescan the roots inside the same slice that
           drained the grey stack.  The rescan is atomic, so it is gated
           on fitting the remaining budget (estimated from the initial
           scan); a slice that already spent its budget ends instead, and
           the next slice — arriving with a clean budget — runs the
           rescan as its first unit *)
        if
          t.grey_len = 0 && t.ns_done
          && ((not !did) || !cost + t.root_cost <= budget)
        then begin
          let n = scan_roots t in
          cost := !cost + (n * cm.major_mark_per_word);
          did := true;
          if t.grey_len = 0 then begin
            (* marking is complete; flush the caches again so nothing
               holds an about-to-be-freed oop, rebuild the free lists
               from scratch, and let the sweep start next slice *)
            run_flush_hooks t;
            free_reset t.heap;
            t.sweep_cursor <- t.heap.old.base;
            set_phase t Sweeping;
            true
          end
          else false
        end
        else false
      in
      { cost = !cost; mark_completed; cycle_completed = false }
  | Sweeping ->
      sweep_step t cm cost ~budget ~did;
      let cycle_completed = t.sweep_cursor >= t.heap.old.ptr in
      if cycle_completed then begin
        set_phase t Idle;
        t.cycles_completed <- t.cycles_completed + 1;
        rearm t
      end;
      { cost = !cost; mark_completed = false; cycle_completed }

(* One budgeted slice, driven by the engine at a step boundary.  Pacing:
   the mutator gets at least three budgets' worth of time between
   slices. *)
let slice t cm ~now =
  let r = slice_internal t cm ~budget:t.budget in
  t.slices <- t.slices + 1;
  t.slice_cycles_total <- t.slice_cycles_total + r.cost;
  if r.cost > t.max_slice then t.max_slice <- r.cost;
  if r.cost > t.budget then t.overruns <- t.overruns + 1;
  t.slice_costs <- r.cost :: t.slice_costs;
  t.next_slice_at <- now + r.cost + (3 * t.budget);
  r

(* Run the collector to completion — the in-flight cycle, or a whole
   fresh one when idle.  Used when old space is exhausted ([Image_full]
   becomes the last resort) and by tests that need a full cycle. *)
let finish_cycle t cm =
  let total = ref 0 in
  if t.phase = Idle then start_cycle t;
  while t.phase <> Idle do
    let r = slice_internal t cm ~budget:max_int in
    total := !total + r.cost
  done;
  t.forced_completions <- t.forced_completions + 1;
  !total

(* --- statistics --- *)

let cycles_completed t = t.cycles_completed
let slices t = t.slices
let slice_cycles_total t = t.slice_cycles_total
let max_slice t = t.max_slice
let overruns t = t.overruns
let slice_costs t = List.rev t.slice_costs
let reclaimed_objects t = t.reclaimed_objects
let reclaimed_words t = t.reclaimed_words
let forced_completions t = t.forced_completions
let barrier_greys t = t.barrier_greys
let alloc_marks t = t.alloc_marks
