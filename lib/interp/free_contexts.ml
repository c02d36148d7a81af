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

(* The recycling modes carry the entry-table lock for [give]'s
   tenured-context insert; a disabled list never links a context. *)
type mode =
  | Replicated of { entry_lock : Spinlock.t }  (* one pair per processor *)
  | Shared_locked of { lock : Spinlock.t; entry_lock : Spinlock.t }
  | Disabled                 (* always allocate fresh (ablation) *)

type lists = {
  mutable small : Oop.t;     (* head of the small-context chain *)
  mutable large : Oop.t;
}

type t = {
  mode : mode;
  lists : lists;             (* own (replicated) or the shared pair *)
  owner : int;               (* owning vp when replicated; -1 = shared *)
  remember_cost : int;
  skip_bracket : bool;       (* fault injection: mutate without the lock *)
  sanitizer : Sanitizer.t;
  san_id : Sanitizer.id;     (* the checked resource: the list when
                                shared, the owner's pair when replicated;
                                -1 when disabled *)
  mutable reuses : int;
  mutable fresh : int;
  mutable returns : int;     (* contexts handed back *)
  mutable abandons : int;    (* flushes forced by processor failure *)
}

let empty_lists () = { small = Oop.sentinel; large = Oop.sentinel }

let create_replicated ~owner ~entry_lock ~remember_cost ~sanitizer =
  { mode = Replicated { entry_lock }; lists = empty_lists (); owner;
    remember_cost; skip_bracket = false;
    sanitizer; san_id = Sanitizer.id sanitizer "free contexts";
    reuses = 0; fresh = 0; returns = 0; abandons = 0 }

(* [skip_bracket] injects the bug the lock exists to prevent: take/give
   mutate the shared list without entering the critical section, so the
   sanitizer's guarded-mutation check fires.  Only the schedule
   explorer's broken-configuration self-check sets it. *)
let create_shared ~entry_lock ~remember_cost ~sanitizer ~skip_bracket ~lock
    ~lists =
  { mode = Shared_locked { lock; entry_lock }; lists; owner = -1;
    remember_cost; skip_bracket; sanitizer;
    san_id = Sanitizer.id sanitizer "free context list";
    reuses = 0; fresh = 0; returns = 0; abandons = 0 }

let create_disabled ~sanitizer =
  { mode = Disabled; lists = empty_lists (); owner = -1; remember_cost = 0;
    skip_bracket = false; sanitizer; san_id = -1;
    reuses = 0; fresh = 0; returns = 0; abandons = 0 }

let flush t =
  t.lists.small <- Oop.sentinel;
  t.lists.large <- Oop.sentinel

type size_class = Small | Large

let check_owner t ~vp ~now =
  match t.mode with
  | Replicated _ ->
      Sanitizer.check_owner t.sanitizer ~resource:t.san_id ~owner:t.owner ~vp
        ~now
  | Shared_locked _ | Disabled -> ()

let check_shared_mutation t ~vp ~now =
  Sanitizer.check_guarded t.sanitizer ~resource:t.san_id ~vp ~now Trace.Empty
    0 0

(* Run the list mutation [f]: under the shared list's lock (checked by
   the sanitizer inside the section), in the open when the fault
   injection skips the bracket, or directly on a private list. *)
let bracket t ~vp ~now f =
  match t.mode with
  | Shared_locked _ when t.skip_bracket ->
      check_shared_mutation t ~vp ~now;
      (now, f ())
  | Shared_locked { lock; _ } ->
      Spinlock.critical ~vp lock ~now ~op_cycles:6 (fun () ->
          check_shared_mutation t ~vp ~now;
          f ())
  | Replicated _ | Disabled -> (now, f ())

(* Pop a recycled context, charging lock time for the shared variant.
   Returns (now, ctx) where ctx is [Oop.sentinel] when the list is empty. *)
let take ?(vp = -1) t heap ~now size =
  match t.mode with
  | Disabled ->
      (* still a fresh allocation: the reuse-rate denominator must count
         every context the ablation fails to recycle *)
      t.fresh <- t.fresh + 1;
      (now, Oop.sentinel)
  | Replicated _ | Shared_locked _ ->
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
  | Replicated { entry_lock } | Shared_locked { entry_lock; _ } ->
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
        let finish, () =
          Spinlock.critical ~vp entry_lock ~now ~op_cycles:t.remember_cost
            (fun () -> Heap.remember heap !pending)
        in
        finish
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

let sanitizer t = t.sanitizer
let reuses t = t.reuses
let fresh_allocations t = t.fresh
let abandons t = t.abandons
