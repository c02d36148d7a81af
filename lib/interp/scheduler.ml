(* The VM side of Smalltalk Process scheduling.

   Smalltalk-80 scheduling is "a priority queue which is examined whenever
   a Semaphore is signalled or a Process manipulation primitive is
   invoked"; MS serializes it with one lock on the queue.  The MS
   reorganization is reproduced here: a Process made active is NOT removed
   from the ready queue — "the ready queue contains all Processes which
   are ready to run including those running" — and only the interpreter
   knows (via the [running_on] slot) whether a Process is running.  The
   [keep_running_in_queue] flag restores the uniprocessor BS behaviour for
   the reorganization ablation.

   Two ready-queue representations are selectable (E16):

   - [Locked] (the paper's design): the ready queue is the
     ProcessorScheduler heap object — an Array of LinkedLists, one per
     priority, with Processes chained through their [next_link] slots —
     and every operation serializes on the single scheduler lock.

   - [Stealing]: each virtual processor owns one deque per priority
     (plain LinkedList heap objects in old space, guarded by that
     processor's deque spinlock).  The owner pushes and pops at the
     front (LIFO, for locality); a thief validates under the victim's
     lock and takes the *last* eligible Process (FIFO — the oldest,
     least cache-warm work).  Victim selection is priority-aware: every
     deque at priority p is considered before any deque at p-1, which
     preserves the Smalltalk-80 invariant that the highest-priority
     ready Process runs.  The global scheduler lock survives for
     Semaphore list surgery, which stays serialized as in the paper.

   Both are written as "homes": a home is a set of per-priority ready
   lists under one lock.  [Locked] has one home (owner 0), the
   ProcessorScheduler's lists under the scheduler lock; [Stealing] has
   one per processor, its deques under its deque lock.  A home list is
   named by the raw index [owner * priorities + priority - 1].  Only the
   home primitives below ([homes], [home_list], [section], [chained],
   [home], [insert], [sched_check_lock]) and [pick] look at the
   strategy; every other operation is written once on top of them.

   Lock discipline: every list operation runs inside the owning lock's
   critical section.  A store that would insert its receiver into the
   entry table is deferred — the address is queued while the queue lock
   is held and the insert is performed under the entry-table lock right
   after the section closes, because MS holds one kernel lock at a time.
   The deferral is invisible to the scavenger: every public operation
   flushes before returning. *)

type strategy = Locked | Stealing

type t = {
  u : Universe.t;
  lock : Spinlock.t;
  entry_lock : Spinlock.t;
  op_cycles : int;              (* cost of one ready-queue operation *)
  remember_cost : int;          (* entry-table insert, under its lock *)
  keep_running_in_queue : bool;
  processors : int;
  strategy : strategy;
  deque_locks : Spinlock.t array; (* per processor; empty when Locked *)
  deques : Oop.t array;     (* processors * priorities; empty when Locked *)
  unlocked_steal : bool;    (* debug: deque ops skip the lock bracket *)
  running : Oop.t array;          (* per processor: process or sentinel *)
  preempt : bool array;           (* per processor: reschedule requested *)
  sanitizer : Sanitizer.t;
  san_queue : Sanitizer.id;           (* "ready queue" in [sanitizer] *)
  san_deques : Sanitizer.id array;    (* "ready deque N", per processor *)
  machine : Machine.t;                (* for live-processor wake routing *)
  (* the calendar engine's unpark signal: called after every wake and
     failover (the two events that create ready work), so idle processors
     parked on "nothing to run" learn that there is something again *)
  mutable on_ready : (now:int -> unit) option;
  mutable next_home : int;     (* round-robin home for engine-side wakes *)
  mutable pending_remembers : int list;  (* deferred entry-table inserts *)
  mutable wakes : int;
  mutable picks : int;
  mutable preemptions : int;
  mutable failovers : int;  (* processes recovered from crashed processors *)
  mutable local_picks : int;     (* picks satisfied from the own deque *)
  mutable steals : int;          (* picks satisfied from a victim deque *)
  mutable failed_steals : int;   (* steal validations that found nothing *)
  mutable migrations : int;      (* stolen processes re-homed (MS mode) *)
  stolen_from : int array;       (* per victim processor *)
}

let create ~deque_locks ~unlocked_steal ~sanitizer ~machine ~u ~lock
    ~entry_lock ~op_cycles ~remember_cost ~keep_running_in_queue ~processors =
  let strategy = if Array.length deque_locks = 0 then Locked else Stealing in
  let san_queue = Sanitizer.id sanitizer "ready queue" in
  let san_deques =
    Array.init processors (fun owner ->
        Sanitizer.id sanitizer (Printf.sprintf "ready deque %d" owner))
  in
  let deques =
    match strategy with
    | Locked -> [||]
    | Stealing ->
        let h = Universe.heap u in
        Array.init
          (processors * Layout.Scheduler.priorities)
          (fun _ ->
            let o =
              Heap.alloc_old h ~slots:Layout.Linked_list.fixed_slots
                ~raw:false ~cls:u.Universe.classes.Universe.linked_list ()
            in
            ignore (Heap.store_ptr h o Layout.Linked_list.first u.Universe.nil);
            ignore (Heap.store_ptr h o Layout.Linked_list.last u.Universe.nil);
            o)
  in
  { u; lock; entry_lock; op_cycles; remember_cost; keep_running_in_queue;
    processors; strategy; deque_locks; deques; unlocked_steal;
    running = Array.make processors Oop.sentinel;
    preempt = Array.make processors false;
    sanitizer;
    san_queue;
    san_deques;
    machine;
    on_ready = None;
    next_home = 0;
    pending_remembers = [];
    wakes = 0; picks = 0; preemptions = 0; failovers = 0;
    local_picks = 0; steals = 0; failed_steals = 0; migrations = 0;
    stolen_from = Array.make processors 0 }

(* Install (or clear) the calendar engine's ready-work hook. *)
let set_on_ready t f = t.on_ready <- f

let notify_ready t ~now =
  match t.on_ready with Some f -> f ~now | None -> ()

let heap t = Universe.heap t.u
let nil t = t.u.Universe.nil

(* A pointer store into scheduler-guarded heap state.  Reports the mutation
   to the sanitizer under the resource id [resource] — "ready queue" for
   the serialized queue and Semaphore lists, "ready deque N" for processor
   N's deques — and defers any entry-table insert (we are inside a queue
   lock; the entry-table lock is taken by [flush_remembers]). *)
let store t ~vp ~resource obj i v =
  let h = heap t in
  if Sanitizer.checking t.sanitizer then
    Sanitizer.check_guarded t.sanitizer ~resource ~vp ~now:(-1) Trace.Slot
      (Oop.addr obj) i;
  if Heap.store_would_remember h obj v then
    t.pending_remembers <- Oop.addr obj :: t.pending_remembers;
  (* this bypasses [Heap.store_ptr], so the incremental collector's write
     barrier must be run by hand (E18) *)
  Heap.major_note h v;
  Heap.set_raw h obj i v

(* Perform the deferred entry-table inserts, each under the entry-table
   lock, in queue order.  Returns the advanced completion time. *)
let flush_remembers t ~now ~vp =
  match t.pending_remembers with
  | [] -> now
  | pending ->
      t.pending_remembers <- [];
      let h = heap t in
      List.fold_left
        (fun now a ->
          (* another deferred store (or an earlier flush) may have
             remembered it already *)
          if Heap.is_remembered h a then now
          else
            let finish, () =
              Spinlock.critical ~vp t.entry_lock ~now
                ~op_cycles:t.remember_cost (fun () -> Heap.remember h a)
            in
            finish)
        now (List.rev pending)

(* --- linked lists of Processes (LinkedList and Semaphore share layout) --- *)

(* The unlocked bodies: callers hold the lock that guards [resource]. *)

let append_unlocked t ~vp ~resource list proc =
  let h = heap t in
  let n = nil t in
  let first = Heap.get h list Layout.Linked_list.first in
  if Oop.equal first n then begin
    store t ~vp ~resource list Layout.Linked_list.first proc;
    store t ~vp ~resource list Layout.Linked_list.last proc
  end
  else begin
    let last = Heap.get h list Layout.Linked_list.last in
    store t ~vp ~resource last Layout.Process.next_link proc;
    store t ~vp ~resource list Layout.Linked_list.last proc
  end;
  store t ~vp ~resource proc Layout.Process.next_link n;
  store t ~vp ~resource proc Layout.Process.my_list list

(* LIFO end of a deque: the owner pushes (and scans) at the front. *)
let push_front_unlocked t ~vp ~resource list proc =
  let n = nil t in
  let first = Heap.get (heap t) list Layout.Linked_list.first in
  store t ~vp ~resource proc Layout.Process.next_link first;
  store t ~vp ~resource proc Layout.Process.my_list list;
  store t ~vp ~resource list Layout.Linked_list.first proc;
  if Oop.equal first n then
    store t ~vp ~resource list Layout.Linked_list.last proc

let pop_first_unlocked t ~vp ~resource list =
  let h = heap t in
  let n = nil t in
  let first = Heap.get h list Layout.Linked_list.first in
  if Oop.equal first n then None
  else begin
    let next = Heap.get h first Layout.Process.next_link in
    store t ~vp ~resource list Layout.Linked_list.first next;
    if Oop.equal next n then store t ~vp ~resource list Layout.Linked_list.last n;
    store t ~vp ~resource first Layout.Process.next_link n;
    store t ~vp ~resource first Layout.Process.my_list n;
    Some first
  end

let remove_unlocked t ~vp ~resource list proc =
  let h = heap t in
  let n = nil t in
  let rec unlink prev cur =
    if Oop.equal cur n then ()
    else if Oop.equal cur proc then begin
      let next = Heap.get h cur Layout.Process.next_link in
      (if Oop.equal prev n then
         store t ~vp ~resource list Layout.Linked_list.first next
       else store t ~vp ~resource prev Layout.Process.next_link next);
      if Oop.equal next n then
        store t ~vp ~resource list Layout.Linked_list.last
          (if Oop.equal prev n then n else prev);
      store t ~vp ~resource proc Layout.Process.next_link n;
      store t ~vp ~resource proc Layout.Process.my_list n
    end
    else unlink cur (Heap.get h cur Layout.Process.next_link)
  in
  unlink n (Heap.get h list Layout.Linked_list.first)

(* Public list surgery: under the scheduler lock, then flush.  Semaphore
   wait lists go through these in both strategies — Semaphores stay
   serialized on the one scheduler lock, as in the paper. *)

let ll_append ?(vp = -1) t ~now list proc =
  let now, () =
    Spinlock.critical ~vp t.lock ~now ~op_cycles:t.op_cycles (fun () ->
        append_unlocked t ~vp ~resource:t.san_queue list proc)
  in
  flush_remembers t ~now ~vp

let ll_pop_first ?(vp = -1) t ~now list =
  let now, popped =
    Spinlock.critical ~vp t.lock ~now ~op_cycles:t.op_cycles (fun () ->
        pop_first_unlocked t ~vp ~resource:t.san_queue list)
  in
  (flush_remembers t ~now ~vp, popped)

let ll_remove ?(vp = -1) t ~now list proc =
  let now, () =
    Spinlock.critical ~vp t.lock ~now ~op_cycles:t.op_cycles (fun () ->
        remove_unlocked t ~vp ~resource:t.san_queue list proc)
  in
  flush_remembers t ~now ~vp

(* --- the ready queue --- *)

let ready_list t priority =
  let h = heap t in
  let lists = Heap.get h t.u.Universe.scheduler Layout.Scheduler.ready_lists in
  Heap.get h lists (priority - 1)

let priority_of t proc =
  Oop.small_val (Heap.get (heap t) proc Layout.Process.priority)

let process_state t proc =
  Oop.small_val (Heap.get (heap t) proc Layout.Process.state)

let set_running_on_u t ~vp ~resource proc vp_opt =
  let v =
    match vp_opt with
    | Some p -> Oop.of_small p
    | None -> nil t
  in
  store t ~vp ~resource proc Layout.Process.running_on v

let set_running_on t proc vp_opt =
  set_running_on_u t ~vp:(-1) ~resource:t.san_queue proc vp_opt

let running_on t proc =
  let v = Heap.get (heap t) proc Layout.Process.running_on in
  if Oop.is_small v then Some (Oop.small_val v) else None

(* --- homes ---------------------------------------------------------------

   The only functions (with [pick]) that look at [t.strategy]. *)

let homes t =
  match t.strategy with
  | Locked -> 1
  | Stealing -> t.processors

let index ~owner ~priority = (owner * Layout.Scheduler.priorities) + priority - 1
let owner_of_index i = i / Layout.Scheduler.priorities
let priority_of_index i = (i mod Layout.Scheduler.priorities) + 1
let deque t ~owner ~priority = t.deques.(index ~owner ~priority)

let home_list t i =
  match t.strategy with
  | Locked -> ready_list t (i + 1)
  | Stealing -> t.deques.(i)

(* Run [f resource] under [owner]'s home lock, [resource] being the
   sanitizer id of what it guards — unless the deliberately broken
   unlocked-steal configuration is active, in which case a deque
   mutation runs in the open and the sanitizer's guard check fires. *)
let section t ~vp ~owner ~now f =
  match t.strategy with
  | Locked ->
      Spinlock.critical ~vp t.lock ~now ~op_cycles:t.op_cycles (fun () ->
          f t.san_queue)
  | Stealing ->
      let resource = t.san_deques.(owner) in
      if t.unlocked_steal then (now, f resource)
      else
        Spinlock.critical ~vp t.deque_locks.(owner) ~now
          ~op_cycles:t.op_cycles (fun () -> f resource)

(* The home list [proc] is chained into, or -1.  Locked only recognises
   the ready list of the Process's own priority; a deque of any priority
   counts, so [is_in_ready_queue] checks the band itself. *)
let chained t proc =
  let list = Heap.get (heap t) proc Layout.Process.my_list in
  if Oop.equal list (nil t) then -1
  else
    match t.strategy with
    | Locked ->
        let priority = priority_of t proc in
        if Oop.equal list (ready_list t priority) then priority - 1 else -1
    | Stealing ->
        let rec find i =
          if i >= Array.length t.deques then -1
          else if Oop.equal t.deques.(i) list then i
          else find (i + 1)
        in
        find 0

(* The home a Process is queued on when it is not chained anywhere.
   Locked: the one home.  Stealing: the acting processor's own, or — for
   engine-side wakes (timers, spawns, failover) — round-robin over the
   processors that are still alive, so work is not parked on a corpse. *)
let home ?(exclude = -1) t ~vp =
  match t.strategy with
  | Locked -> 0
  | Stealing ->
      let live i =
        i <> exclude && (Machine.vp t.machine i).Machine.state <> Machine.Halted
      in
      if vp >= 0 && vp < t.processors && live vp then vp
      else begin
        let rec find tries i =
          if tries >= t.processors then (i + 1) mod t.processors
          else if live i then i
          else find (tries + 1) ((i + 1) mod t.processors)
        in
        let h = find 0 (t.next_home mod t.processors) in
        t.next_home <- (h + 1) mod t.processors;
        h
      end

(* Queue [proc] at the wake end of [list]: appended for Locked, pushed on
   the front (the owner's LIFO end) for Stealing.  [~detach:true] also
   clears its running mark, before the append or after the push: the
   store order each strategy's failover has always used. *)
let insert t ~vp ~resource ~detach list proc =
  match t.strategy with
  | Locked ->
      if detach then set_running_on_u t ~vp ~resource proc None;
      append_unlocked t ~vp ~resource list proc
  | Stealing ->
      push_front_unlocked t ~vp ~resource list proc;
      if detach then set_running_on_u t ~vp ~resource proc None

(* The lock a processor's periodic scheduling check touches: the shared
   scheduler lock, or — stealing — the processor's own deque lock, so
   the check does not serialize every running processor. *)
let sched_check_lock t ~vp =
  match t.strategy with
  | Locked -> t.lock
  | Stealing -> t.deque_locks.(vp)

(* --- on top of the homes --- *)

(* Runnable and not running on any processor: a Process a pick may take. *)
let eligible t proc =
  (not (Oop.is_small (Heap.get (heap t) proc Layout.Process.running_on)))
  && process_state t proc = Layout.Process_state.runnable

(* First eligible Process from the front (the LIFO end). *)
let first_eligible t list =
  let h = heap t in
  let n = nil t in
  let rec scan cur =
    if Oop.equal cur n then None
    else if eligible t cur then Some cur
    else scan (Heap.get h cur Layout.Process.next_link)
  in
  scan (Heap.get h list Layout.Linked_list.first)

(* Last eligible Process — the FIFO end a thief takes from: the oldest,
   least cache-warm work in the victim's deque. *)
let last_eligible t list =
  let h = heap t in
  let n = nil t in
  let rec scan best cur =
    if Oop.equal cur n then best
    else
      scan
        (if eligible t cur then Some cur else best)
        (Heap.get h cur Layout.Process.next_link)
  in
  scan None (Heap.get h list Layout.Linked_list.first)

(* The first home list holding an eligible Process of priority above
   [above], walking priorities top-down and, at each, the homes from
   [from]'s own onwards: its index and that Process. *)
let find_ready t ~from ~above =
  let n = homes t in
  let rec go priority d =
    if priority <= above then None
    else if d >= n then go (priority - 1) 0
    else
      let i = index ~owner:((from + d) mod n) ~priority in
      match first_eligible t (home_list t i) with
      | Some proc -> Some (i, proc)
      | None -> go priority (d + 1)
  in
  go Layout.Scheduler.priorities 0

let is_in_ready_queue t proc =
  let i = chained t proc in
  i >= 0 && priority_of_index i = priority_of t proc

(* --- invariants ---------------------------------------------------------

   Checked after every wake/pick/yield/relinquish when a sanitizer is
   armed: the running table and the Processes' [running_on] slots must
   mirror each other, no Process may run on two processors, every Process
   chained into a ready list or deque must point back at it through
   [my_list] (and sit in a deque of its own priority), and under the MS
   reorganization a running Process stays in the queue. *)

(* Messages are built only on a violation: the checks run after every
   scheduler operation under an armed sanitizer. *)
let invariant_broken san ~vp ~now msg =
  Sanitizer.report_violation san ~vp ~now ~resource:"scheduler" msg

(* A walked list: ready list [-index] (index < 0) or deque [index]. *)
let describe_list index =
  if index < 0 then Printf.sprintf "ready list %d" (-index)
  else
    Printf.sprintf "deque %d/%d" (owner_of_index index)
      (priority_of_index index)

(* Walk [list] from [cur]: every chained Process must point back at it
   through [my_list], sit in a deque of its own priority, and agree with
   the running table on [running_on].  Returns the budget left; the
   budget guards against a corrupted cyclic chain. *)
let rec check_chain t san ~vp ~now list index cur budget =
  if Oop.equal cur (nil t) || budget <= 0 then budget
  else begin
    let h = heap t in
    if not (Oop.equal (Heap.get h cur Layout.Process.my_list) list) then
      invariant_broken san ~vp ~now
        (Printf.sprintf "process %d chained into %s but my_list disagrees"
           (Oop.addr cur) (describe_list index));
    if index >= 0 then begin
      let priority = priority_of_index index in
      if priority_of t cur <> priority then
        invariant_broken san ~vp ~now
          (Printf.sprintf
             "process %d sits in a priority-%d deque but has priority %d"
             (Oop.addr cur) priority (priority_of t cur))
    end;
    let r = Heap.get h cur Layout.Process.running_on in
    if Oop.is_small r then begin
      let v = Oop.small_val r in
      if v < 0 || v >= t.processors || not (Oop.equal t.running.(v) cur)
      then
        invariant_broken san ~vp ~now
          (Printf.sprintf
             "ready process %d claims running_on=%d but the running table \
              disagrees"
             (Oop.addr cur) v)
    end;
    check_chain t san ~vp ~now list index
      (Heap.get h cur Layout.Process.next_link)
      (budget - 1)
  end

let check_invariants t ~now ~vp =
  let san = t.sanitizer in
  if Sanitizer.checking san then begin
    let h = heap t in
    for i = 0 to Array.length t.running - 1 do
      let proc = t.running.(i) in
      if not (Oop.equal proc Oop.sentinel) then begin
        let r = Heap.get h proc Layout.Process.running_on in
        if not (Oop.is_small r) then
          invariant_broken san ~vp ~now
            (Printf.sprintf
               "running.(%d) holds a process with running_on=nil" i)
        else if Oop.small_val r <> i then
          invariant_broken san ~vp ~now
            (Printf.sprintf
               "running.(%d) holds a process with running_on=%d" i
               (Oop.small_val r));
        for j = 0 to i - 1 do
          if Oop.equal t.running.(j) proc then
            invariant_broken san ~vp ~now
              (Printf.sprintf "process running on both vp %d and vp %d" j
                 i)
        done;
        if t.keep_running_in_queue && not (is_in_ready_queue t proc) then
          invariant_broken san ~vp ~now
            (Printf.sprintf
               "running.(%d) process missing from the ready queue" i)
      end
    done;
    let budget = ref 10_000 in
    for priority = 1 to Layout.Scheduler.priorities do
      let list = ready_list t priority in
      budget :=
        check_chain t san ~vp ~now list (-priority)
          (Heap.get h list Layout.Linked_list.first)
          !budget
    done;
    for i = 0 to Array.length t.deques - 1 do
      let list = t.deques.(i) in
      budget :=
        check_chain t san ~vp ~now list i
          (Heap.get h list Layout.Linked_list.first)
          !budget
    done
  end

(* Request a reschedule of the processor running the lowest-priority
   process strictly below [priority], if any.  Equal priority never
   preempts: the paper's rule is strictly-lower only, and flagging a
   peer on a tie would make equal-priority Processes thrash. *)
let request_preemption t ~priority =
  let victim = ref (-1) and worst = ref priority in
  Array.iteri
    (fun vp proc ->
      if not (Oop.equal proc Oop.sentinel) then begin
        let p = priority_of t proc in
        if p < !worst then begin
          worst := p;
          victim := vp
        end
      end)
    t.running;
  if !victim >= 0 then begin
    t.preempt.(!victim) <- true;
    t.preemptions <- t.preemptions + 1
  end

(* Every mutating operation ends here: the deferred entry-table inserts,
   then the invariant check. *)
let finish t ~now ~vp =
  let now = flush_remembers t ~now ~vp in
  check_invariants t ~now ~vp;
  now

(* Make [proc] ready.  Idempotent when it is already in the ready queue. *)
let wake ?(vp = -1) t ~now proc =
  let priority = priority_of t proc in
  let owner = home t ~vp in
  let now, () =
    section t ~vp ~owner ~now (fun resource ->
        t.wakes <- t.wakes + 1;
        if not (is_in_ready_queue t proc) then
          insert t ~vp ~resource ~detach:false
            (home_list t (index ~owner ~priority))
            proc;
        request_preemption t ~priority)
  in
  let now = finish t ~now ~vp in
  notify_ready t ~now;
  now

(* [proc] is now running on [vp], taken from [list]; the BS queue
   removes it. *)
let claim t ~vp ~resource list proc =
  if not t.keep_running_in_queue then remove_unlocked t ~vp ~resource list proc;
  set_running_on_u t ~vp ~resource proc (Some vp);
  t.running.(vp) <- proc

(* Choose the next Process for processor [vp]: the highest-priority ready
   Process that no processor is currently executing.  The two strategies
   keep separate bodies here because they are different protocols.

   Locked: one scan of the serialized queue under the scheduler lock.

   Stealing: an optimistic unlocked peek walks priorities top-down — own
   deque first at each priority, then the other processors' — and the
   winning deque is then revisited under its lock, where the candidate is
   re-validated before being taken (the peek is advisory; only the locked
   re-scan commits).  The owner takes the first eligible Process (LIFO);
   a thief takes the last (FIFO) and re-homes it under its own lock. *)
let pick t ~now ~vp =
  let now, picked =
    match t.strategy with
    | Locked ->
        section t ~vp ~owner:0 ~now (fun resource ->
            t.picks <- t.picks + 1;
            match find_ready t ~from:0 ~above:0 with
            | None -> None
            | Some (i, proc) ->
                claim t ~vp ~resource (home_list t i) proc;
                Some proc)
    | Stealing -> (
        t.picks <- t.picks + 1;
        match find_ready t ~from:vp ~above:0 with
        | None ->
            (* nothing anywhere: one look at the own (empty) deque is
               still charged, so idle polling has a cost — but on the
               processor's own lock, not a shared one *)
            let now =
              if t.unlocked_steal then now
              else
                Spinlock.locked_op ~vp t.deque_locks.(vp) ~now
                  ~op_cycles:t.op_cycles
            in
            (now, None)
        | Some (i, _) when owner_of_index i = vp ->
            let list = home_list t i in
            let now, taken =
              section t ~vp ~owner:vp ~now (fun resource ->
                  match first_eligible t list with
                  | None -> None
                  | Some proc ->
                      claim t ~vp ~resource list proc;
                      Some proc)
            in
            if Option.is_some taken then t.local_picks <- t.local_picks + 1;
            (now, taken)
        | Some (i, _) -> (
            (* steal: validate under the victim's lock, take the oldest *)
            let owner = owner_of_index i and priority = priority_of_index i in
            let list = home_list t i in
            let now, stolen =
              section t ~vp ~owner ~now (fun resource ->
                  match last_eligible t list with
                  | None -> None
                  | Some proc ->
                      remove_unlocked t ~vp ~resource list proc;
                      Some proc)
            in
            match stolen with
            | None ->
                t.failed_steals <- t.failed_steals + 1;
                (now, None)
            | Some proc ->
                t.steals <- t.steals + 1;
                t.stolen_from.(owner) <- t.stolen_from.(owner) + 1;
                Sanitizer.steal_event t.sanitizer ~vp ~now
                  ~resource:t.san_deques.(owner)
                  (Printf.sprintf
                     "vp %d stole process %d from vp %d (priority %d)" vp
                     (Oop.addr proc) owner priority);
                (* re-home under the thief's own lock *)
                let now, () =
                  section t ~vp ~owner:vp ~now (fun resource ->
                      if t.keep_running_in_queue then begin
                        t.migrations <- t.migrations + 1;
                        insert t ~vp ~resource ~detach:false
                          (home_list t (index ~owner:vp ~priority))
                          proc
                      end;
                      set_running_on_u t ~vp ~resource proc (Some vp);
                      t.running.(vp) <- proc)
                in
                (now, Some proc)))
  in
  (finish t ~now ~vp, picked)

(* The current Process of [vp] stops running.  [requeue] keeps it ready
   (yield/preemption); otherwise it leaves the ready queue (wait, suspend,
   terminate).  Already chained into a home list, it is unmarked under
   that list's lock and dropped when it is leaving the ready set. *)
let relinquish t ~now ~vp ~requeue proc =
  let i = chained t proc in
  let owner = if i >= 0 then owner_of_index i else home t ~vp in
  let now, () =
    section t ~vp ~owner ~now (fun resource ->
        set_running_on_u t ~vp ~resource proc None;
        t.running.(vp) <- Oop.sentinel;
        if i >= 0 then begin
          if not requeue then
            remove_unlocked t ~vp ~resource (home_list t i) proc
        end
        else if requeue then
          append_unlocked t ~vp ~resource
            (home_list t (index ~owner ~priority:(priority_of t proc)))
            proc)
  in
  finish t ~now ~vp

(* Recover the Process that was running on a crashed processor.  The
   engine (not any vp) takes the queue lock, stores the Process's
   current context back into [suspended_context] — coherent even
   mid-method, because pc and sp write through to the heap at every
   step — detaches it from the dead processor and returns it to the
   ready queue, where any surviving processor can pick it up.  A victim
   already chained into a ready list or deque is left where it is — a
   second enqueue would corrupt the chain — and a Process stranded in
   the dead owner's deque stays stealable, because victim selection
   scans every deque, the dead owner's included.  If the dead processor
   crashed while *holding* the queue lock, this acquire is exactly what
   the spin watchdog catches. *)
let failover t ~now ~dead proc ctx =
  let priority = priority_of t proc in
  let i = chained t proc in
  let owner =
    if i >= 0 then owner_of_index i else home ~exclude:dead t ~vp:(-1)
  in
  let now, () =
    section t ~vp:(-1) ~owner ~now (fun resource ->
        t.failovers <- t.failovers + 1;
        store t ~vp:(-1) ~resource proc Layout.Process.suspended_context ctx;
        t.running.(dead) <- Oop.sentinel;
        if i >= 0 then set_running_on_u t ~vp:(-1) ~resource proc None
        else
          insert t ~vp:(-1) ~resource ~detach:true
            (home_list t (index ~owner ~priority))
            proc;
        (* as [wake] does: without this, a recovered Process of higher
           priority would sit in the queue forever while the survivors
           run background work that never yields *)
        request_preemption t ~priority)
  in
  let now = finish t ~now ~vp:(-1) in
  notify_ready t ~now;
  now

let failovers t = t.failovers

(* Move the current Process to the back of its priority list at home:
   equal-priority peers run first, and in stealing mode the back is also
   the steal-preferred FIFO end, so a yielded Process is the first work a
   hungry processor takes.  Chained into another home, it is unlinked
   under that home's lock first. *)
let yield t ~now ~vp proc =
  let i = chained t proc in
  let owner = home t ~vp in
  let elsewhere = i >= 0 && owner_of_index i <> owner in
  let now =
    if elsewhere then
      fst
        (section t ~vp ~owner:(owner_of_index i) ~now (fun resource ->
             remove_unlocked t ~vp ~resource (home_list t i) proc))
    else now
  in
  let now, () =
    section t ~vp ~owner ~now (fun resource ->
        if i >= 0 && not elsewhere then
          remove_unlocked t ~vp ~resource (home_list t i) proc;
        append_unlocked t ~vp ~resource
          (home_list t (index ~owner ~priority:(priority_of t proc)))
          proc;
        set_running_on_u t ~vp ~resource proc None;
        t.running.(vp) <- Oop.sentinel)
  in
  finish t ~now ~vp

(* Remove a Process from whatever ready structure holds it: the
   serialized queue, or — stealing — the deque its [my_list] names,
   under that deque's lock.  Suspend, terminate and priority changes go
   through this, because another processor's wake may have homed the
   Process on any deque.  The paper's queue takes its lock even when the
   Process is not queued, and checks no invariants. *)
let remove_from_ready ?(vp = -1) t ~now proc =
  match t.strategy with
  | Locked -> ll_remove ~vp t ~now (ready_list t (priority_of t proc)) proc
  | Stealing ->
      let i = chained t proc in
      if i < 0 then now
      else
        let now, () =
          section t ~vp ~owner:(owner_of_index i) ~now (fun resource ->
              remove_unlocked t ~vp ~resource (home_list t i) proc)
        in
        finish t ~now ~vp

let take_preempt_flag t vp =
  if t.preempt.(vp) then begin
    t.preempt.(vp) <- false;
    true
  end
  else false

(* Is there a ready, not-running Process with priority strictly above
   [p]?  A tie is not better: preemption is strictly-lower only. *)
let better_ready t ~than:p = Option.is_some (find_ready t ~from:0 ~above:p)

(* The stealing deques live in old space but are referenced only from the
   host-side array, and the running table can hold the sole reference to
   a Process mid-handoff: both are roots for the incremental old-space
   collector (E18). *)
let iter_roots t f =
  Array.iter f t.deques;
  Array.iter f t.running

(* --- counters --- *)

let local_picks t = t.local_picks
let steals t = t.steals
let failed_steals t = t.failed_steals
let migrations t = t.migrations
let stolen_from t = Array.copy t.stolen_from
