(* The primitive operations of the virtual machine.

   Primitives follow Smalltalk-80 semantics: they run when a send reaches a
   method carrying a <primitive: n> pragma, before any state has been
   mutated; on failure the method body runs instead.  This fall-through is
   what lets MS introduce new primitives (thisProcess, canRun:) while
   remaining image-compatible with BS (paper, section 3.3).

   Numbering (loosely after the Blue Book):
      1-17   SmallInteger arithmetic and comparison
     41-48   Float arithmetic and coercion
     60-76   storage: at:, at:put:, size, basicNew, instVarAt:, symbols
     80      block value
     85-95   Processes and Semaphores (including MS's 93 thisProcess and
             94 canRun:)
    100-104  I/O and the clock
    110-116  programming-environment services (compiler, decompiler,
             reflection)
    120-122  error, scavenge request, GC statistics
    140-141  Characters *)

open State

type outcome =
  | Ok_done      (* arguments consumed, result pushed *)
  | Failed       (* nothing changed; run the method body *)
  | Switched     (* the context/process changed; the send is complete *)

(* --- small helpers --- *)

let h_ st = st.sh.heap
let u_ st = st.sh.u

let true_oop st = (u_ st).Universe.true_
let false_oop st = (u_ st).Universe.false_
let bool_oop st b = if b then true_oop st else false_oop st

let pop_all_push st ~nargs v =
  popn st (nargs + 1);
  push st v;
  Ok_done

let charge_arith st = add_cost st st.sh.cm.Cost_model.prim_arith
let charge_at st = add_cost st st.sh.cm.Cost_model.prim_at
let charge_misc st = add_cost st st.sh.cm.Cost_model.prim_misc

(* --- process machinery shared with the interpreter --- *)

(* Save the running context into the active Process. *)
let save_active_context st =
  let proc = !(st.active_process) in
  if not (Oop.equal proc Oop.sentinel) then
    store_with_check st proc Layout.Process.suspended_context !(st.active_ctx)

(* Load [proc] onto this interpreter. *)
let load_process st proc =
  st.active_process := proc;
  let ctx = Heap.get (h_ st) proc Layout.Process.suspended_context in
  st.active_ctx := ctx;
  invalidate_cache st;
  st.ctx_switches <- st.ctx_switches + 1

(* Pick the next Process; leaves the interpreter idle when there is none. *)
let pick_next st =
  let n, picked = Scheduler.pick st.sh.sched ~now:(now st) ~vp:st.id in
  sync_to st n;
  match picked with
  | Some proc -> load_process st proc
  | None ->
      st.active_process := Oop.sentinel;
      st.active_ctx := Oop.sentinel;
      invalidate_cache st

(* The active Process stops running; [requeue] keeps it eligible. *)
let switch_away st ~requeue =
  save_active_context st;
  let proc = !(st.active_process) in
  let n =
    Scheduler.relinquish st.sh.sched ~now:(now st) ~vp:st.id ~requeue proc
  in
  sync_to st n;
  pick_next st

(* The active Process finished (bottom return) or was terminated. *)
let finish_process st ~result =
  let proc = !(st.active_process) in
  Heap.set_raw (h_ st) proc Layout.Process.state
    (Oop.of_small Layout.Process_state.terminated);
  st.sh.on_terminate proc result;
  switch_away st ~requeue:false

(* Signal [sem]: wake a waiter or bump the excess count. *)
let signal_semaphore st sem =
  let excess = Oop.small_val (Heap.get (h_ st) sem Layout.Semaphore.excess_signals) in
  (* brief list surgery under the scheduler lock *)
  let n, popped =
    Scheduler.ll_pop_first ~vp:st.id st.sh.sched ~now:(now st) sem
  in
  sync_to st n;
  match popped with
  | Some waiter ->
      let n = Scheduler.wake ~vp:st.id st.sh.sched ~now:(now st) waiter in
      sync_to st n
  | None ->
      Heap.set_raw (h_ st) sem Layout.Semaphore.excess_signals
        (Oop.of_small (excess + 1))

(* --- SmallInteger arithmetic --- *)

let int2 st ~nargs f =
  if nargs <> 1 then Failed
  else begin
    let arg = peek st ~depth:0 and recv = peek st ~depth:1 in
    if Oop.is_small recv && Oop.is_small arg then
      f (Oop.small_val recv) (Oop.small_val arg)
    else Failed
  end

let int_arith st ~nargs f =
  int2 st ~nargs (fun a b ->
      match f a b with
      | Some r when r >= Oop.min_small && r <= Oop.max_small ->
          charge_arith st;
          pop_all_push st ~nargs (Oop.of_small r)
      | Some _ | None -> Failed)

let int_cmp st ~nargs f =
  int2 st ~nargs (fun a b ->
      charge_arith st;
      pop_all_push st ~nargs (bool_oop st (f a b)))

(* Floor division and modulo, Smalltalk style. *)
let floor_div a b =
  let q = a / b and r = a mod b in
  if (r <> 0) && ((r < 0) <> (b < 0)) then q - 1 else q

let floor_mod a b =
  let r = a mod b in
  if (r <> 0) && ((r < 0) <> (b < 0)) then r + b else r

(* --- Floats --- *)

let float_of st o =
  if Oop.is_small o then Some (float_of_int (Oop.small_val o))
  else if Oop.equal (Universe.class_of (u_ st) o) (u_ st).Universe.classes.Universe.float_c
  then Some (Universe.float_value (u_ st) o)
  else None

(* Box a float in new space, taking the allocation lock like any other
   eden allocation. *)
let new_float st f =
  let u = u_ st in
  let o =
    Ctx.alloc_object st ~slots:2 ~raw:true
      ~cls:u.Universe.classes.Universe.float_c ()
  in
  Universe.write_float u o f;
  o

let float_arith st ~nargs f =
  if nargs <> 1 then Failed
  else
    match (float_of st (peek st ~depth:1), float_of st (peek st ~depth:0)) with
    | Some a, Some b ->
        charge_arith st;
        let r = new_float st (f a b) in
        pop_all_push st ~nargs r
    | _ -> Failed

let float_cmp st ~nargs f =
  if nargs <> 1 then Failed
  else
    match (float_of st (peek st ~depth:1), float_of st (peek st ~depth:0)) with
    | Some a, Some b ->
        charge_arith st;
        pop_all_push st ~nargs (bool_oop st (f a b))
    | _ -> Failed

(* --- indexable storage --- *)

(* The indexable part of [o] starts after its class's named instance
   variables. *)
let indexable_info st o =
  if Oop.is_small o then None
  else begin
    let h = h_ st in
    let cls = Heap.class_at h (Oop.addr o) in
    let inst = Oop.small_val (Heap.get h cls Layout.Class.inst_size) in
    let total = Heap.slots h (Oop.addr o) in
    Some (cls, inst, total - inst)
  end

let prim_at st ~nargs =
  if nargs <> 1 then Failed
  else begin
    let idx = peek st ~depth:0 and recv = peek st ~depth:1 in
    if not (Oop.is_small idx) then Failed
    else
      match indexable_info st recv with
      | None -> Failed
      | Some (_, inst, len) ->
          let i = Oop.small_val idx in
          if i < 1 || i > len then Failed
          else begin
            charge_at st;
            let h = h_ st in
            let v = Heap.get h recv (inst + i - 1) in
            let v =
              if Heap.is_bytes h (Oop.addr recv) then
                Universe.char_oop (u_ st) (Char.chr (v land 0xff))
              else if Heap.is_raw h (Oop.addr recv) then Oop.of_small v
              else v
            in
            pop_all_push st ~nargs v
          end
  end

let prim_at_put st ~nargs =
  if nargs <> 2 then Failed
  else begin
    let v = peek st ~depth:0
    and idx = peek st ~depth:1
    and recv = peek st ~depth:2 in
    if not (Oop.is_small idx) then Failed
    else
      match indexable_info st recv with
      | None -> Failed
      | Some (_, inst, len) ->
          let i = Oop.small_val idx in
          if i < 1 || i > len then Failed
          else begin
            let h = h_ st in
            let a = Oop.addr recv in
            charge_at st;
            if Heap.is_bytes h a then begin
              (* accept a Character or a small integer 0..255 *)
              let code =
                if Oop.is_small v then Some (Oop.small_val v)
                else if
                  Oop.equal (Universe.class_of (u_ st) v)
                    (u_ st).Universe.classes.Universe.character
                then Some (Char.code (Universe.char_value (u_ st) v))
                else None
              in
              match code with
              | Some c when c >= 0 && c <= 255 ->
                  Heap.set_raw h recv (inst + i - 1) c;
                  pop_all_push st ~nargs v
              | Some _ | None -> Failed
            end
            else if Heap.is_raw h a then begin
              if Oop.is_small v then begin
                Heap.set_raw h recv (inst + i - 1) (Oop.small_val v);
                pop_all_push st ~nargs v
              end
              else Failed
            end
            else begin
              store_with_check st recv (inst + i - 1) v;
              add_cost st st.sh.cm.Cost_model.store_check;
              pop_all_push st ~nargs v
            end
          end
  end

(* Class format of instances to allocate. *)
let instantiate st cls ~indexed =
  let h = h_ st in
  let inst = Oop.small_val (Heap.get h cls Layout.Class.inst_size) in
  let format = Oop.small_val (Heap.get h cls Layout.Class.format) in
  let raw = format >= Layout.Class_format.raw_words in
  let bytes = format = Layout.Class_format.raw_bytes in
  let slots = if raw then indexed else inst + indexed in
  (* unusually large objects go straight to old space, bypassing eden *)
  if slots + Layout.header_words > 4096 then
    Heap.alloc_old h ~slots ~raw ~bytes ~cls ()
  else Ctx.alloc_object st ~slots ~raw ~bytes ~cls ()

let prim_basic_new st ~nargs =
  if nargs <> 0 then Failed
  else begin
    let recv = peek st ~depth:0 in
    if Oop.is_small recv then Failed
    else begin
      charge_misc st;
      let o = instantiate st recv ~indexed:0 in
      pop_all_push st ~nargs o
    end
  end

let prim_basic_new_sized st ~nargs =
  if nargs <> 1 then Failed
  else begin
    let size = peek st ~depth:0 and recv = peek st ~depth:1 in
    if Oop.is_small recv || not (Oop.is_small size) || Oop.small_val size < 0
    then Failed
    else begin
      charge_misc st;
      let o = instantiate st recv ~indexed:(Oop.small_val size) in
      pop_all_push st ~nargs o
    end
  end

(* replaceFrom:to:with:startingAt: — the bulk-copy primitive. *)
let prim_replace st ~nargs =
  if nargs <> 4 then Failed
  else begin
    let start2 = peek st ~depth:0
    and src = peek st ~depth:1
    and stop = peek st ~depth:2
    and start = peek st ~depth:3
    and recv = peek st ~depth:4 in
    match (indexable_info st recv, indexable_info st src) with
    | Some (_, rinst, rlen), Some (_, sinst, slen)
      when Oop.is_small start && Oop.is_small stop && Oop.is_small start2 ->
        let s1 = Oop.small_val start
        and s2 = Oop.small_val stop
        and t = Oop.small_val start2 in
        let count = s2 - s1 + 1 in
        let h = h_ st in
        let same_kind =
          Heap.is_raw h (Oop.addr recv) = Heap.is_raw h (Oop.addr src)
        in
        if
          count < 0 || s1 < 1 || s2 > rlen || t < 1
          || t + count - 1 > slen || not same_kind
        then Failed
        else begin
          add_cost st (st.sh.cm.Cost_model.prim_at + (2 * count));
          let raw = Heap.is_raw h (Oop.addr recv) in
          for i = 0 to count - 1 do
            let v = Heap.get h src (sinst + t - 1 + i) in
            if raw then Heap.set_raw h recv (rinst + s1 - 1 + i) v
            else store_with_check st recv (rinst + s1 - 1 + i) v
          done;
          pop_all_push st ~nargs recv
        end
    | _ -> Failed
  end

(* --- Process and Semaphore primitives --- *)

let is_a st o cls = Oop.equal (Universe.class_of (u_ st) o) cls

let prim_signal st ~nargs =
  if nargs <> 0 then Failed
  else begin
    let sem = peek st ~depth:0 in
    if not (is_a st sem (u_ st).Universe.classes.Universe.semaphore) then Failed
    else begin
      charge_misc st;
      signal_semaphore st sem;
      pop_all_push st ~nargs sem
    end
  end

let prim_wait st ~nargs =
  if nargs <> 0 then Failed
  else begin
    let sem = peek st ~depth:0 in
    if not (is_a st sem (u_ st).Universe.classes.Universe.semaphore) then Failed
    else begin
      charge_misc st;
      let h = h_ st in
      let excess =
        Oop.small_val (Heap.get h sem Layout.Semaphore.excess_signals)
      in
      if excess > 0 then begin
        Heap.set_raw h sem Layout.Semaphore.excess_signals
          (Oop.of_small (excess - 1));
        pop_all_push st ~nargs sem
      end
      else begin
        (* the send completes now (result on the stack); the Process then
           blocks on the semaphore *)
        ignore (pop_all_push st ~nargs sem);
        save_active_context st;
        let proc = !(st.active_process) in
        let n =
          Scheduler.relinquish st.sh.sched ~now:(now st) ~vp:st.id
            ~requeue:false proc
        in
        sync_to st n;
        let n =
          Scheduler.ll_append ~vp:st.id st.sh.sched ~now:(now st) sem proc
        in
        sync_to st n;
        pick_next st;
        Switched
      end
    end
  end

let prim_resume st ~nargs =
  if nargs <> 0 then Failed
  else begin
    let proc = peek st ~depth:0 in
    if not (is_a st proc (u_ st).Universe.classes.Universe.process) then Failed
    else if
      Scheduler.process_state st.sh.sched proc = Layout.Process_state.terminated
    then Failed
    else begin
      charge_misc st;
      let n = Scheduler.wake ~vp:st.id st.sh.sched ~now:(now st) proc in
      sync_to st n;
      pop_all_push st ~nargs proc
    end
  end

let prim_suspend st ~nargs =
  if nargs <> 0 then Failed
  else begin
    let proc = peek st ~depth:0 in
    if not (is_a st proc (u_ st).Universe.classes.Universe.process) then Failed
    else begin
      charge_misc st;
      if Oop.equal proc !(st.active_process) then begin
        ignore (pop_all_push st ~nargs proc);
        switch_away st ~requeue:false;
        Switched
      end
      else begin
        (match Scheduler.running_on st.sh.sched proc with
         | Some _ ->
             (* running on another processor: it parks itself at its next
                scheduling check *)
             Heap.set_raw (h_ st) proc Layout.Process.state
               (Oop.of_small Layout.Process_state.suspend_requested)
         | None ->
             (* not running anywhere: drop it from the ready queue.  (Not
                [relinquish], which would clear THIS processor's running
                slot while it keeps executing the active Process.) *)
             let n =
               Scheduler.remove_from_ready ~vp:st.id st.sh.sched ~now:(now st)
                 proc
             in
             sync_to st n);
        pop_all_push st ~nargs proc
      end
    end
  end

(* newProcess: a suspended Process that will run the receiver block. *)
let prim_new_process st ~nargs =
  if nargs <> 0 then Failed
  else begin
    let block = peek st ~depth:0 in
    let u = u_ st in
    if not (is_a st block u.Universe.classes.Universe.block_context) then Failed
    else if Oop.small_val (Heap.get (h_ st) block Layout.Ctx.nargs) <> 0 then
      Failed
    else begin
      charge_misc st;
      let h = h_ st in
      (* a fresh bottom context for the new thread of execution *)
      let size = Ctx.size_class_of_ctx st block in
      let ctx =
        Ctx.alloc_context st ~size ~cls:u.Universe.classes.Universe.block_context
      in
      let copy i = store_with_check st ctx i (Heap.get h block i) in
      store_with_check st ctx Layout.Ctx.sender (nil st);
      Heap.set_raw h ctx Layout.Ctx.pc (Heap.get h block Layout.Ctx.startpc);
      Heap.set_raw h ctx Layout.Ctx.stackp (Oop.of_small 0);
      copy Layout.Ctx.meth;
      copy Layout.Ctx.receiver;
      copy Layout.Ctx.home;
      Heap.set_raw h ctx Layout.Ctx.startpc (Heap.get h block Layout.Ctx.startpc);
      Heap.set_raw h ctx Layout.Ctx.argstart (Heap.get h block Layout.Ctx.argstart);
      Heap.set_raw h ctx Layout.Ctx.nargs (Oop.of_small 0);
      let proc =
        Ctx.alloc_object st ~slots:Layout.Process.fixed_slots ~raw:false
          ~cls:u.Universe.classes.Universe.process ()
      in
      let setp i v = store_with_check st proc i v in
      setp Layout.Process.next_link (nil st);
      setp Layout.Process.suspended_context ctx;
      let priority =
        let active = !(st.active_process) in
        if Oop.equal active Oop.sentinel then 5
        else Scheduler.priority_of st.sh.sched active
      in
      Heap.set_raw h proc Layout.Process.priority (Oop.of_small priority);
      setp Layout.Process.my_list (nil st);
      setp Layout.Process.running_on (nil st);
      setp Layout.Process.name (nil st);
      Heap.set_raw h proc Layout.Process.state
        (Oop.of_small Layout.Process_state.runnable);
      pop_all_push st ~nargs proc
    end
  end

let prim_set_priority st ~nargs =
  if nargs <> 1 then Failed
  else begin
    let p = peek st ~depth:0 and proc = peek st ~depth:1 in
    if
      (not (is_a st proc (u_ st).Universe.classes.Universe.process))
      || (not (Oop.is_small p))
      || Oop.small_val p < 1
      || Oop.small_val p > Layout.Scheduler.priorities
    then Failed
    else begin
      charge_misc st;
      let sched = st.sh.sched in
      let was_ready = Scheduler.is_in_ready_queue sched proc in
      if was_ready then begin
        let n =
          Scheduler.remove_from_ready ~vp:st.id sched ~now:(now st) proc
        in
        sync_to st n
      end;
      Heap.set_raw (h_ st) proc Layout.Process.priority p;
      if was_ready then begin
        let n = Scheduler.wake ~vp:st.id sched ~now:(now st) proc in
        sync_to st n
      end;
      pop_all_push st ~nargs proc
    end
  end

let prim_yield st ~nargs =
  if nargs <> 0 then Failed
  else begin
    charge_misc st;
    let recv = peek st ~depth:0 in
    ignore (pop_all_push st ~nargs recv);
    save_active_context st;
    let proc = !(st.active_process) in
    let n = Scheduler.yield st.sh.sched ~now:(now st) ~vp:st.id proc in
    sync_to st n;
    pick_next st;
    Switched
  end

let prim_terminate st ~nargs =
  if nargs <> 0 then Failed
  else begin
    let proc = peek st ~depth:0 in
    if not (is_a st proc (u_ st).Universe.classes.Universe.process) then Failed
    else begin
      charge_misc st;
      if Oop.equal proc !(st.active_process) then begin
        ignore (pop_all_push st ~nargs proc);
        finish_process st ~result:(nil st);
        Switched
      end
      else begin
        Heap.set_raw (h_ st) proc Layout.Process.state
          (Oop.of_small Layout.Process_state.terminated);
        (match Scheduler.running_on st.sh.sched proc with
         | Some _ -> ()  (* its own processor notices at the next check *)
         | None ->
             if Scheduler.is_in_ready_queue st.sh.sched proc then begin
               let n =
                 Scheduler.remove_from_ready ~vp:st.id st.sh.sched
                   ~now:(now st) proc
               in
               sync_to st n
             end);
        pop_all_push st ~nargs proc
      end
    end
  end

(* MS's reorganized primitives (paper section 3.3). *)

let prim_this_process st ~nargs =
  if nargs <> 0 then Failed
  else begin
    charge_misc st;
    pop_all_push st ~nargs !(st.active_process)
  end

let prim_can_run st ~nargs =
  if nargs <> 1 then Failed
  else begin
    let proc = peek st ~depth:0 in
    if not (is_a st proc (u_ st).Universe.classes.Universe.process) then Failed
    else begin
      charge_misc st;
      (* ready or running: present in the ready queue (MS keeps running
         Processes in the queue), or noted as running by an interpreter *)
      let sched = st.sh.sched in
      let can =
        Scheduler.is_in_ready_queue sched proc
        || Scheduler.running_on sched proc <> None
      in
      pop_all_push st ~nargs (bool_oop st can)
    end
  end

(* --- I/O --- *)

let string_arg st o =
  if Oop.is_small o then None
  else if Heap.is_bytes (h_ st) (Oop.addr o) then
    Some (Heap.string_value (h_ st) o)
  else None

let prim_display st ~nargs =
  if nargs <> 1 then Failed
  else begin
    charge_misc st;
    let finish = Devices.display_enqueue ~vp:st.id st.sh.display ~now:(now st) in
    sync_to st finish;
    pop_all_push st ~nargs (peek st ~depth:1)
  end

let prim_transcript_show st ~nargs =
  if nargs <> 1 then Failed
  else
    match string_arg st (peek st ~depth:0) with
    | None -> Failed
    | Some s ->
        charge_misc st;
        (* transcript output goes through the display controller's
           serialized queue *)
        let finish =
          Devices.display_enqueue ~vp:st.id st.sh.display ~now:(now st)
        in
        sync_to st finish;
        Buffer.add_string st.sh.transcript s;
        pop_all_push st ~nargs (peek st ~depth:1)

(* Cycles per millisecond, floored at 1 so sub-ms-resolution cost models
   (cycles_per_second < 1000) neither divide by zero in the clock nor
   collapse every timer deadline to cycle 0. *)
let cycles_per_ms cm = Int.max 1 (cm.Cost_model.cycles_per_second / 1000)

let prim_clock st ~nargs =
  if nargs <> 0 then Failed
  else begin
    charge_misc st;
    let ms = now st / cycles_per_ms st.sh.cm in
    pop_all_push st ~nargs (Oop.of_small ms)
  end

let prim_next_event st ~nargs =
  if nargs <> 0 then Failed
  else begin
    let finish, ev =
      Devices.poll ~vp:st.id st.sh.input ~now:(now st) ~op_cycles:20
    in
    sync_to st finish;
    let v = match ev with Some p -> Oop.of_small p | None -> nil st in
    pop_all_push st ~nargs v
  end

(* signal: aSemaphore afterMilliseconds: msDuration — the V kernel's
   timer service, used by Delay.

   The duration is relative and the primitive adds the exact current
   clock itself.  The old protocol took an absolute millisecond deadline
   computed in the image as [millisecondClockValue + duration]; that
   truncated [now] to whole milliseconds, so the deadline landed up to
   cycles_per_ms - 1 cycles early and — with the duration measured from
   a stale clock read — a Delay issued late in a long run could fire
   almost immediately instead of waiting.  Adding [now st] here keeps
   the full cycle-resolution clock in the deadline. *)
let prim_signal_after st ~nargs =
  if nargs <> 2 then Failed
  else begin
    let ms = peek st ~depth:0 and sem = peek st ~depth:1 in
    if
      (not (is_a st sem (u_ st).Universe.classes.Universe.semaphore))
      || (not (Oop.is_small ms))
      || Oop.small_val ms < 0
    then Failed
    else begin
      charge_misc st;
      let fire = now st + (Oop.small_val ms * cycles_per_ms st.sh.cm) in
      let cell = ref sem in
      Heap.add_root (h_ st) cell;
      Calendar.add st.sh.timers ~key:fire (State.Signal_sem cell);
      pop_all_push st ~nargs sem
    end
  end

(* nextRequest — pop the next pending request id from the image server's
   mailbox (E17).  Workers call this after their pool semaphore wait;
   -1 means nothing deliverable yet (an excess signal raced ahead of the
   payload), and the worker goes back to waiting. *)
let prim_next_request st ~nargs =
  if nargs <> 0 then Failed
  else
    match st.sh.request_mailbox with
    | None -> Failed
    | Some mb ->
        charge_misc st;
        let v =
          match Mailbox.receive mb ~now:(now st) with
          | Mailbox.Message rid -> rid
          | Mailbox.Arrives_at t ->
              (* the signal outran the message (the waking processor's
                 clock lags the send): stall until the arrival *)
              st.cost <- st.cost + (t - now st);
              (match Mailbox.receive mb ~now:(now st) with
               | Mailbox.Message rid -> rid
               | Mailbox.Empty | Mailbox.Arrives_at _ -> -1)
          | Mailbox.Empty -> -1
        in
        pop_all_push st ~nargs (Oop.of_small v)

(* requestDone: rid — completion callback into the image server: latency
   bookkeeping and, for closed-loop sessions, scheduling the next
   arrival. *)
let prim_request_done st ~nargs =
  if nargs <> 1 then Failed
  else begin
    let rid = peek st ~depth:0 in
    if not (Oop.is_small rid) then Failed
    else begin
      charge_misc st;
      st.sh.on_request_done ~rid:(Oop.small_val rid) ~now:(now st);
      pop_all_push st ~nargs (peek st ~depth:1)
    end
  end

let prim_set_input_semaphore st ~nargs =
  if nargs <> 1 then Failed
  else begin
    let sem = peek st ~depth:0 in
    if not (is_a st sem (u_ st).Universe.classes.Universe.semaphore) then Failed
    else begin
      st.sh.input_semaphore := sem;
      pop_all_push st ~nargs sem
    end
  end

(* --- programming-environment services --- *)

let new_string_obj st s =
  let u = u_ st in
  let n = String.length s in
  let o =
    if n + Layout.header_words > 4096 then
      Heap.alloc_old (h_ st) ~slots:n ~raw:true ~bytes:true
        ~cls:u.Universe.classes.Universe.string ()
    else
      Ctx.alloc_object st ~slots:n ~raw:true ~bytes:true
        ~cls:u.Universe.classes.Universe.string ()
  in
  String.iteri (fun i c -> Heap.set_raw (h_ st) o i (Char.code c)) s;
  o

let new_array_obj st elements =
  let u = u_ st in
  let n = List.length elements in
  let o =
    Ctx.alloc_object st ~slots:n ~raw:false
      ~cls:u.Universe.classes.Universe.array ()
  in
  List.iteri (fun i e -> store_with_check st o i e) elements;
  o

let prim_as_symbol st ~nargs =
  if nargs <> 0 then Failed
  else
    match string_arg st (peek st ~depth:0) with
    | None -> Failed
    | Some s ->
        charge_misc st;
        pop_all_push st ~nargs (Universe.intern (u_ st) s)

let prim_as_string st ~nargs =
  if nargs <> 0 then Failed
  else
    match string_arg st (peek st ~depth:0) with
    | None -> Failed
    | Some s ->
        charge_misc st;
        pop_all_push st ~nargs (new_string_obj st s)

let prim_compile st ~nargs =
  (* compile: sourceString into: aClass classSide: aBoolean *)
  if nargs <> 3 then Failed
  else
    match st.sh.compile_hook with
    | None -> Failed
    | Some hook ->
        let class_side_oop = peek st ~depth:0
        and cls = peek st ~depth:1
        and src = peek st ~depth:2 in
        (match string_arg st src with
         | None -> Failed
         | Some source ->
             let class_side = Oop.equal class_side_oop (true_oop st) in
             (* compilation allocates throughout: half its work is a
                stream of short allocations under the serialized allocator,
                each exposed to contention *)
             let total =
               String.length source * st.sh.cm.Cost_model.prim_compile_per_char
             in
             add_cost st (total / 2);
             let ops = Int.max 1 (total / 2 / 60) in
             for _ = 1 to ops do
               let finish =
                 Spinlock.locked_op ~vp:st.id st.sh.alloc_lock ~now:(now st) ~op_cycles:60
               in
               sync_to st finish
             done;
             (match hook ~cls ~class_side source with
              | meth ->
                  st.sh.on_method_install ();
                  pop_all_push st ~nargs meth
              (* a compiler bug is a primitive failure, but exhausted old
                 space must stay loud: swallowing it here would turn heap
                 death into a misleading 'compilation failed' *)
              | exception (Heap.Image_full _ as e) -> raise e
              | exception _ -> Failed))

let prim_decompile st ~nargs =
  (* decompile: aCompiledMethod *)
  if nargs <> 1 then Failed
  else
    match st.sh.decompile_hook with
    | None -> Failed
    | Some hook ->
        let meth = peek st ~depth:0 in
        if not (is_a st meth (u_ st).Universe.classes.Universe.compiled_method)
        then Failed
        else begin
          match hook ~meth with
          | src ->
              (* reconstruction also builds its result as a stream of
                 short allocations under the allocator *)
              let total =
                String.length src * (st.sh.cm.Cost_model.prim_compile_per_char / 2)
              in
              add_cost st (total / 2);
              let ops = Int.max 1 (total / 2 / 60) in
              for _ = 1 to ops do
                let finish =
                  Spinlock.locked_op ~vp:st.id st.sh.alloc_lock ~now:(now st) ~op_cycles:60
                in
                sync_to st finish
              done;
              pop_all_push st ~nargs (new_string_obj st src)
          | exception _ -> Failed
        end

let prim_all_classes st ~nargs =
  if nargs <> 0 then Failed
  else begin
    charge_misc st;
    let u = u_ st in
    let classes =
      Universe.global_names u
      |> List.filter_map (fun name -> Universe.find_class u name)
      |> List.filter (fun c ->
             Oop.equal (Universe.class_of u c) u.Universe.classes.Universe.class_c)
    in
    add_cost st (List.length classes * 4);
    pop_all_push st ~nargs (new_array_obj st classes)
  end

let prim_selectors_of st ~nargs =
  (* selectorsOf: aClass classSide: aBoolean *)
  if nargs <> 2 then Failed
  else begin
    let class_side = Oop.equal (peek st ~depth:0) (true_oop st) in
    let cls = peek st ~depth:1 in
    let u = u_ st in
    if not (Oop.equal (Universe.class_of u cls) u.Universe.classes.Universe.class_c)
    then Failed
    else begin
      charge_misc st;
      let h = h_ st in
      let dict =
        Heap.get h cls
          (if class_side then Layout.Class.class_method_dict
           else Layout.Class.method_dict)
      in
      let sels = Heap.get h dict Layout.Mdict.selectors in
      let size = Oop.small_val (Heap.get h dict Layout.Mdict.size) in
      let elements = List.init size (fun i -> Heap.get h sels i) in
      add_cost st (size * 3);
      pop_all_push st ~nargs (new_array_obj st elements)
    end
  end

let prim_method_at st ~nargs =
  (* methodAt: selector in: aClass classSide: aBoolean *)
  if nargs <> 3 then Failed
  else begin
    let class_side = Oop.equal (peek st ~depth:0) (true_oop st) in
    let cls = peek st ~depth:1 in
    let sel = peek st ~depth:2 in
    let h = h_ st in
    let u = u_ st in
    if not (Oop.equal (Universe.class_of u cls) u.Universe.classes.Universe.class_c)
    then Failed
    else begin
      charge_misc st;
      let dict =
        Heap.get h cls
          (if class_side then Layout.Class.class_method_dict
           else Layout.Class.method_dict)
      in
      let sels = Heap.get h dict Layout.Mdict.selectors in
      let meths = Heap.get h dict Layout.Mdict.methods in
      let size = Oop.small_val (Heap.get h dict Layout.Mdict.size) in
      let rec scan i =
        if i >= size then nil st
        else if Oop.equal (Heap.get h sels i) sel then Heap.get h meths i
        else scan (i + 1)
      in
      add_cost st (size * 2);
      pop_all_push st ~nargs (scan 0)
    end
  end

let prim_literals_of st ~nargs =
  if nargs <> 1 then Failed
  else begin
    let meth = peek st ~depth:0 in
    let u = u_ st in
    if not (is_a st meth u.Universe.classes.Universe.compiled_method) then Failed
    else begin
      charge_misc st;
      let h = h_ st in
      let total = Heap.slots h (Oop.addr meth) in
      let lits =
        List.init (total - Layout.Method.fixed_slots) (fun i ->
            Heap.get h meth (Layout.Method.fixed_slots + i))
      in
      pop_all_push st ~nargs (new_array_obj st lits)
    end
  end

let prim_source_of st ~nargs =
  if nargs <> 1 then Failed
  else begin
    let meth = peek st ~depth:0 in
    if not (is_a st meth (u_ st).Universe.classes.Universe.compiled_method)
    then Failed
    else begin
      charge_misc st;
      pop_all_push st ~nargs (Heap.get (h_ st) meth Layout.Method.source)
    end
  end

let prim_selector_of_method st ~nargs =
  if nargs <> 1 then Failed
  else begin
    let meth = peek st ~depth:0 in
    if not (is_a st meth (u_ st).Universe.classes.Universe.compiled_method)
    then Failed
    else begin
      charge_misc st;
      pop_all_push st ~nargs (Heap.get (h_ st) meth Layout.Method.selector)
    end
  end

(* --- miscellany --- *)

let prim_error st ~nargs =
  if nargs <> 1 then Failed
  else begin
    let msg =
      match string_arg st (peek st ~depth:0) with
      | Some s -> s
      | None -> "error"
    in
    vm_error "Smalltalk error: %s" msg
  end

let prim_scavenge st ~nargs =
  if nargs <> 0 then Failed
  else begin
    st.sh.gc_wanted <- true;
    pop_all_push st ~nargs (peek st ~depth:0)
  end

let prim_gc_stats st ~nargs =
  if nargs <> 0 then Failed
  else begin
    charge_misc st;
    let h = h_ st in
    let stats =
      [ Oop.of_small (Heap.scavenge_count h);
        Oop.of_small (Heap.words_allocated h);
        Oop.of_small (Heap.words_copied_total h);
        Oop.of_small (Heap.tenured_words_total h) ]
    in
    pop_all_push st ~nargs (new_array_obj st stats)
  end

let prim_char_value st ~nargs =
  if nargs <> 1 then Failed
  else begin
    let v = peek st ~depth:0 in
    if Oop.is_small v && Oop.small_val v >= 0 && Oop.small_val v <= 255 then begin
      charge_misc st;
      pop_all_push st ~nargs (Universe.char_oop (u_ st) (Char.chr (Oop.small_val v)))
    end
    else Failed
  end

let prim_char_as_integer st ~nargs =
  if nargs <> 0 then Failed
  else begin
    let c = peek st ~depth:0 in
    if is_a st c (u_ st).Universe.classes.Universe.character then begin
      charge_misc st;
      pop_all_push st ~nargs
        (Oop.of_small (Char.code (Universe.char_value (u_ st) c)))
    end
    else Failed
  end

(* --- dispatch --- *)

let run st ~prim ~nargs =
  st.prim_calls <- st.prim_calls + 1;
  match prim with
  | 1 -> int_arith st ~nargs (fun a b -> Some (a + b))
  | 2 -> int_arith st ~nargs (fun a b -> Some (a - b))
  | 3 -> int_cmp st ~nargs (fun a b -> a < b)
  | 4 -> int_cmp st ~nargs (fun a b -> a > b)
  | 5 -> int_cmp st ~nargs (fun a b -> a <= b)
  | 6 -> int_cmp st ~nargs (fun a b -> a >= b)
  | 7 -> int_cmp st ~nargs (fun a b -> a = b)
  | 8 -> int_cmp st ~nargs (fun a b -> a <> b)
  | 9 -> int_arith st ~nargs (fun a b -> Some (a * b))
  | 10 -> int_arith st ~nargs (fun a b -> if b = 0 then None else Some (floor_div a b))
  | 11 -> int_arith st ~nargs (fun a b -> if b = 0 then None else Some (floor_mod a b))
  | 12 -> int_arith st ~nargs (fun a b -> Some (a land b))
  | 13 -> int_arith st ~nargs (fun a b -> Some (a lor b))
  | 14 -> int_arith st ~nargs (fun a b -> Some (a lxor b))
  | 15 ->
      int_arith st ~nargs (fun a b ->
          if b >= 0 && b < 62 then Some (a lsl b)
          else if b < 0 && b > -62 then Some (a asr (-b))
          else None)
  | 16 ->
      (* identity *)
      if nargs <> 1 then Failed
      else begin
        charge_arith st;
        let b = Oop.equal (peek st ~depth:0) (peek st ~depth:1) in
        pop_all_push st ~nargs (bool_oop st b)
      end
  | 17 -> int_arith st ~nargs (fun a b -> if b = 0 then None else Some (a / b))
  | 41 -> float_arith st ~nargs ( +. )
  | 42 -> float_arith st ~nargs ( -. )
  | 43 -> float_cmp st ~nargs ( < )
  | 44 -> float_arith st ~nargs ( *. )
  | 45 ->
      if nargs <> 1 then Failed
      else
        (match float_of st (peek st ~depth:0) with
         | Some f when f = 0.0 -> Failed
         | _ -> float_arith st ~nargs ( /. ))
  | 46 -> float_cmp st ~nargs ( = )
  | 47 ->
      (* truncated *)
      if nargs <> 0 then Failed
      else
        (match float_of st (peek st ~depth:0) with
         | Some f when Oop.is_small (peek st ~depth:0) = false ->
             charge_arith st;
             pop_all_push st ~nargs (Oop.of_small (int_of_float f))
         | _ -> Failed)
  | 48 ->
      (* asFloat *)
      if nargs <> 0 then Failed
      else begin
        let recv = peek st ~depth:0 in
        if Oop.is_small recv then begin
          charge_arith st;
          let f = new_float st (float_of_int (Oop.small_val recv)) in
          pop_all_push st ~nargs f
        end
        else Failed
      end
  | 49 ->
      (* float printString *)
      if nargs <> 0 then Failed
      else begin
        let recv = peek st ~depth:0 in
        if Oop.is_small recv then Failed
        else
          (match float_of st recv with
           | Some f ->
               charge_misc st;
               pop_all_push st ~nargs (new_string_obj st (Printf.sprintf "%g" f))
           | None -> Failed)
      end
  | 60 -> prim_at st ~nargs
  | 61 -> prim_at_put st ~nargs
  | 62 ->
      if nargs <> 0 then Failed
      else
        (match indexable_info st (peek st ~depth:0) with
         | Some (_, _, len) ->
             charge_at st;
             pop_all_push st ~nargs (Oop.of_small len)
         | None -> Failed)
  | 65 -> prim_replace st ~nargs
  | 68 -> prim_basic_new st ~nargs
  | 69 -> prim_basic_new_sized st ~nargs
  | 70 ->
      if nargs <> 0 then Failed
      else begin
        charge_misc st;
        pop_all_push st ~nargs (Universe.class_of (u_ st) (peek st ~depth:0))
      end
  | 71 ->
      (* identityHash; note: address-based, so unstable across scavenges
         for new-space objects (BS dropped the object table too) *)
      if nargs <> 0 then Failed
      else begin
        charge_misc st;
        let o = peek st ~depth:0 in
        let hash = if Oop.is_small o then Oop.small_val o else Oop.addr o in
        pop_all_push st ~nargs (Oop.of_small (hash land 0x3FFFFFFF))
      end
  | 73 ->
      (* instVarAt: *)
      if nargs <> 1 then Failed
      else begin
        let idx = peek st ~depth:0 and recv = peek st ~depth:1 in
        if Oop.is_small recv || not (Oop.is_small idx) then Failed
        else begin
          let h = h_ st in
          let i = Oop.small_val idx in
          let limit = Heap.slots h (Oop.addr recv) in
          if Heap.is_raw h (Oop.addr recv) || i < 1 || i > limit then Failed
          else begin
            charge_at st;
            pop_all_push st ~nargs (Heap.get h recv (i - 1))
          end
        end
      end
  | 74 ->
      (* instVarAt:put: *)
      if nargs <> 2 then Failed
      else begin
        let v = peek st ~depth:0
        and idx = peek st ~depth:1
        and recv = peek st ~depth:2 in
        if Oop.is_small recv || not (Oop.is_small idx) then Failed
        else begin
          let h = h_ st in
          let i = Oop.small_val idx in
          let limit = Heap.slots h (Oop.addr recv) in
          if Heap.is_raw h (Oop.addr recv) || i < 1 || i > limit then Failed
          else begin
            charge_at st;
            store_with_check st recv (i - 1) v;
            pop_all_push st ~nargs v
          end
        end
      end
  | 75 -> prim_as_symbol st ~nargs
  | 76 -> prim_as_string st ~nargs
  | 80 ->
      (* block value/value:...: *)
      let block = peek st ~depth:nargs in
      if not (is_a st block (u_ st).Universe.classes.Universe.block_context)
      then Failed
      else begin
        charge_misc st;
        match Ctx.activate_block st ~block ~nargs with
        | Some () -> Switched
        | None -> Failed
      end
  | 85 -> prim_signal st ~nargs
  | 86 -> prim_wait st ~nargs
  | 87 -> prim_resume st ~nargs
  | 88 -> prim_suspend st ~nargs
  | 89 -> prim_new_process st ~nargs
  | 90 -> prim_set_priority st ~nargs
  | 91 -> prim_yield st ~nargs
  | 92 -> prim_terminate st ~nargs
  | 93 -> prim_this_process st ~nargs
  | 94 -> prim_can_run st ~nargs
  | 95 ->
      if nargs <> 0 then Failed
      else begin
        let proc = peek st ~depth:0 in
        if not (is_a st proc (u_ st).Universe.classes.Universe.process) then
          Failed
        else begin
          charge_misc st;
          pop_all_push st ~nargs
            (Heap.get (h_ st) proc Layout.Process.priority)
        end
      end
  | 100 -> prim_clock st ~nargs
  | 101 -> prim_display st ~nargs
  | 102 -> prim_next_event st ~nargs
  | 103 -> prim_transcript_show st ~nargs
  | 104 -> prim_set_input_semaphore st ~nargs
  | 105 -> prim_signal_after st ~nargs
  | 106 -> prim_next_request st ~nargs
  | 107 -> prim_request_done st ~nargs
  | 110 -> prim_compile st ~nargs
  | 111 -> prim_decompile st ~nargs
  | 112 -> prim_all_classes st ~nargs
  | 113 -> prim_selectors_of st ~nargs
  | 114 -> prim_method_at st ~nargs
  | 115 -> prim_literals_of st ~nargs
  | 116 -> prim_source_of st ~nargs
  | 117 -> prim_selector_of_method st ~nargs
  | 120 -> prim_error st ~nargs
  | 121 -> prim_scavenge st ~nargs
  | 122 -> prim_gc_stats st ~nargs
  | 140 -> prim_char_value st ~nargs
  | 141 -> prim_char_as_integer st ~nargs
  | _ -> Failed
