(* The free-context list.

   "BS maintains a list of unused stack frames, because it is more
   efficient to reuse one than to allocate and initialize a new one."
   Profiling an early MS revealed that serializing this list caused a
   bottleneck; replicating it per processor reduced the worst-case
   overhead from 160% to 65% (paper, section 3.2).

   Contexts come in two standard sizes (small and large frames).  Free
   contexts are chained through their [sender] slot.  The lists are
   flushed at every scavenge: their entries are dead objects that the
   scavenger reclaims by simply not copying them. *)

type mode =
  | Replicated               (* one pair of lists per processor *)
  | Shared_locked of Spinlock.t
  | Disabled                 (* always allocate fresh (ablation) *)

type lists = {
  mutable small : Oop.t;     (* head of the small-context chain *)
  mutable large : Oop.t;
}

type t = {
  mode : mode;
  lists : lists;             (* own (replicated) or the shared pair *)
  owner : int;               (* owning vp when replicated; -1 = shared *)
  entry_lock : Spinlock.t option;  (* for tenured-context link stores *)
  remember_cost : int;
  skip_bracket : bool;       (* fault injection: mutate without the lock *)
  mutable sanitizer : Sanitizer.t option;
  san_id : Sanitizer.id;     (* the checked resource: the list when
                                shared, the owner's pair when replicated *)
  mutable reuses : int;
  mutable fresh : int;
  mutable returns : int;     (* contexts handed back *)
  mutable abandons : int;    (* flushes forced by processor failure *)
}

let empty_lists () = { small = Oop.sentinel; large = Oop.sentinel }

let san_id sanitizer name =
  match sanitizer with Some san -> Sanitizer.id san name | None -> -1

let create_replicated ?(owner = -1) ?entry_lock ?(remember_cost = 0)
    ?sanitizer () =
  { mode = Replicated; lists = empty_lists (); owner; entry_lock;
    remember_cost; skip_bracket = false; sanitizer;
    san_id = san_id sanitizer "free contexts";
    reuses = 0; fresh = 0; returns = 0; abandons = 0 }

(* [skip_bracket] injects the bug the lock exists to prevent: take/give
   mutate the shared list without entering the critical section, so the
   sanitizer's guarded-mutation check fires.  Only the schedule
   explorer's broken-configuration self-check sets it. *)
let create_shared ?entry_lock ?(remember_cost = 0) ?sanitizer
    ?(skip_bracket = false) ~lock ~lists () =
  { mode = Shared_locked lock; lists; owner = -1; entry_lock; remember_cost;
    skip_bracket; sanitizer; san_id = san_id sanitizer "free context list";
    reuses = 0; fresh = 0; returns = 0; abandons = 0 }

let create_disabled () =
  { mode = Disabled; lists = empty_lists (); owner = -1; entry_lock = None;
    remember_cost = 0; skip_bracket = false; sanitizer = None; san_id = -1;
    reuses = 0; fresh = 0; returns = 0; abandons = 0 }

let flush t =
  t.lists.small <- Oop.sentinel;
  t.lists.large <- Oop.sentinel

type size_class = Small | Large

let check_owner t ~vp ~now =
  match t.sanitizer, t.mode with
  | Some san, Replicated ->
      Sanitizer.check_owner san ~resource:t.san_id ~owner:t.owner ~vp ~now
  | _ -> ()

let check_shared_mutation t ~vp ~now =
  match t.sanitizer with
  | Some san ->
      Sanitizer.check_guarded san ~resource:t.san_id ~vp ~now Trace.Empty 0 0
  | None -> ()

(* Run the list mutation [f]: under the shared list's lock (checked by
   the sanitizer inside the section), in the open when the fault
   injection skips the bracket, or directly on a private list. *)
let bracket t ~vp ~now f =
  match t.mode with
  | Shared_locked _ when t.skip_bracket ->
      check_shared_mutation t ~vp ~now;
      (now, f ())
  | Shared_locked lock ->
      Spinlock.critical ~vp lock ~now ~op_cycles:6 (fun () ->
          check_shared_mutation t ~vp ~now;
          f ())
  | Replicated | Disabled -> (now, f ())

(* Pop a recycled context, charging lock time for the shared variant.
   Returns (now, ctx) where ctx is [Oop.sentinel] when the list is empty. *)
let take ?(vp = -1) t heap ~now size =
  match t.mode with
  | Disabled ->
      (* still a fresh allocation: the reuse-rate denominator must count
         every context the ablation fails to recycle *)
      t.fresh <- t.fresh + 1;
      (now, Oop.sentinel)
  | Replicated | Shared_locked _ ->
      check_owner t ~vp ~now;
      bracket t ~vp ~now (fun () ->
          let head =
            match size with Small -> t.lists.small | Large -> t.lists.large
          in
          if Oop.equal head Oop.sentinel then begin
            t.fresh <- t.fresh + 1;
            Oop.sentinel
          end
          else begin
            let next = Heap.get heap head Layout.Ctx.sender in
            (match size with
             | Small -> t.lists.small <- next
             | Large -> t.lists.large <- next);
            t.reuses <- t.reuses + 1;
            head
          end)

(* Hand a dead context back for reuse. *)
let give ?(vp = -1) t heap ~now size ctx =
  match t.mode with
  | Disabled -> now
  | Replicated | Shared_locked _ ->
      check_owner t ~vp ~now;
      t.returns <- t.returns + 1;
      (* Link the context into the chain.  A tenured context on the free
         list must stay visible to the entry table while it links to new
         space; MS holds one kernel lock at a time, so the insert is
         deferred out of the free-list section and performed under the
         entry-table lock afterwards (as the scheduler does). *)
      let pending = ref (-1) in
      let now, () =
        bracket t ~vp ~now (fun () ->
            let head =
              match size with Small -> t.lists.small | Large -> t.lists.large
            in
            if Heap.store_would_remember heap ctx head then
              pending := Oop.addr ctx;
            (* bypasses [Heap.store_ptr]: run the incremental collector's
               write barrier by hand (E18) *)
            Heap.major_note heap head;
            Heap.set_raw heap ctx Layout.Ctx.sender head;
            match size with
            | Small -> t.lists.small <- ctx
            | Large -> t.lists.large <- ctx)
      in
      if !pending >= 0 && not (Heap.is_remembered heap !pending) then
        match t.entry_lock with
        | Some el ->
            let finish, () =
              Spinlock.critical ~vp el ~now ~op_cycles:t.remember_cost
                (fun () -> Heap.remember heap !pending)
            in
            finish
        | None ->
            Heap.remember heap !pending;
            now
      else now

(* Abandon the list wholesale: the owning processor crashed, so its
   recycled contexts are unreachable garbage (replicated lists) or
   possibly mid-mutation (shared list with a dead holder) — either way
   the next scavenge reclaims them by not copying. *)
let abandon t =
  t.abandons <- t.abandons + 1;
  flush t

(* Tenured contexts parked on the free lists are referenced only from
   the host-side heads; the incremental old-space collector treats the
   heads as roots (E18). *)
let iter_roots t f =
  f t.lists.small;
  f t.lists.large

let reuses t = t.reuses
let fresh_allocations t = t.fresh
let abandons t = t.abandons
