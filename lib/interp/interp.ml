(* The bytecode interpreter: a steppable machine executing exactly one
   bytecode per [step].  The engine (in the core library) drives one of
   these per virtual processor, interleaving them in virtual-time order.

   Each step:
   - makes sure a Smalltalk Process is loaded (picking from the shared
     ready queue when idle);
   - performs the periodic duties of the original interpreter: polling the
     input event queue and checking the scheduler for preemption — both
     touch shared, lock-guarded structures and are a source of the
     multiprocessor overhead the paper measures;
   - checks the eden low-water mark and requests a scavenge rendezvous
     when space is short;
   - fetches, decodes and executes one bytecode, accumulating its cycle
     cost in [st.cost] for the engine to charge. *)

open State

type step_result =
  | Ran               (* one bytecode executed; st.cost holds its cycles *)
  | Idle              (* no Process to run *)
  | Need_gc           (* eden low or allocation failed; park and scavenge *)

(* Enough eden for any single step: a large context plus a small object. *)
let low_water_mark = Layout.Ctx.large_frame + Layout.Ctx.fixed_slots + 64

exception Must_be_boolean

(* --- method lookup --- *)

(* The method for [sel] in the method dictionary [dict], or
   [Oop.sentinel]; each selector compared charges [probe_cost] cycles.
   A cache miss runs this on every send of its selector, so it builds no
   closure, option or counter cell. *)
let lookup_in_dict st dict sel ~probe_cost =
  let h = st.sh.heap in
  let sels = Heap.get h dict Layout.Mdict.selectors in
  let size = Oop.small_val (Heap.get h dict Layout.Mdict.size) in
  let i = ref 0 in
  while !i < size && not (Oop.equal (Heap.get h sels !i) sel) do
    incr i
  done;
  if !i < size then begin
    add_cost st ((!i + 1) * probe_cost);
    Heap.get h (Heap.get h dict Layout.Mdict.methods) !i
  end
  else begin
    add_cost st (size * probe_cost);
    Oop.sentinel
  end

(* [lookup_in_dict] along the superclass chain from [cls], reading each
   class's [field]. *)
let rec lookup_chain st cls ~field ~sel ~probe_cost =
  if Oop.equal cls (nil st) || Oop.equal cls Oop.sentinel then Oop.sentinel
  else
    let h = st.sh.heap in
    let m = lookup_in_dict st (Heap.get h cls field) sel ~probe_cost in
    if Oop.equal m Oop.sentinel then
      lookup_chain st (Heap.get h cls Layout.Class.superclass) ~field ~sel
        ~probe_cost
    else m

(* Full lookup along the superclass chain starting at [start]: the
   method, or [Oop.sentinel].  For a class receiver, [start] is the
   receiver itself: its class-side dictionaries are searched first, then
   the instance protocol of Class (the simplified metaclass model).  Kept
   out of line: inlined, it would make [full_send] too large to inline
   into [execute_bytecode]. *)
let[@inline never] lookup_method st ~start ~class_receiver ~sel ~probe_cost =
  if class_receiver then begin
    let m =
      lookup_chain st start ~field:Layout.Class.class_method_dict ~sel
        ~probe_cost
    in
    if Oop.equal m Oop.sentinel then
      (* fall back to Class/Object instance protocol *)
      lookup_chain st st.sh.u.Universe.classes.Universe.class_c
        ~field:Layout.Class.method_dict ~sel ~probe_cost
    else m
  end
  else lookup_chain st start ~field:Layout.Class.method_dict ~sel ~probe_cost

(* Behaviour key for the method cache: a class receiver's class-side
   lookup must not collide with the instance-side lookup of its
   instances. *)
let behavior_key ~class_receiver ~recv ~recv_class =
  if class_receiver then recv lor 1 else recv_class

exception Does_not_understand of string

(* A full message send: special-selector fast path aside, probe the
   method cache, walk the dictionaries on a miss, run the primitive, fall
   back to activation, or dispatch doesNotUnderstand:. *)
let rec full_send st ~sel ~nargs ~super =
  st.sends <- st.sends + 1;
  let cm = st.sh.cm in
  let u = st.sh.u in
  add_cost st cm.Cost_model.send_base;
  let recv = peek st ~depth:nargs in
  let recv_class = Universe.class_of u recv in
  let class_receiver =
    (not super)
    && Oop.equal recv_class u.Universe.classes.Universe.class_c
  in
  (* the method, or [Oop.sentinel] when the lookup fails: no option on
     the send path *)
  let meth =
    if super then begin
      (* lookup starts above the defining class of the running method *)
      let defining = Heap.get st.sh.heap st.c_meth Layout.Method.defining_class in
      let parent = Heap.get st.sh.heap defining Layout.Class.superclass in
      let class_side = Layout.Minfo.class_side (Ctx.minfo st st.c_meth) in
      let m =
        lookup_method st ~start:parent ~class_receiver:class_side ~sel
          ~probe_cost:2
      in
      add_cost st cm.Cost_model.cache_probe;
      m
    end
    else begin
      let key = behavior_key ~class_receiver ~recv ~recv_class in
      let cached =
        Method_cache.probe ~vp:st.id st.mcache ~now:(now st) ~sel ~cls:key
      in
      sync_to st (Method_cache.finish st.mcache);
      if not (Oop.equal cached Oop.sentinel) then begin
        add_cost st
          (cm.Cost_model.cache_hit
           + (match st.mcache.Method_cache.mode with
              | Method_cache.Replicated -> cm.Cost_model.replicated_cache_penalty
              | Method_cache.Shared_locked _ -> 0));
        cached
      end
      else begin
        let start = if class_receiver then recv else recv_class in
        let m = lookup_method st ~start ~class_receiver ~sel ~probe_cost:4 in
        add_cost st cm.Cost_model.cache_probe;
        if not (Oop.equal m Oop.sentinel) then
          sync_to st
            (Method_cache.fill ~vp:st.id st.mcache ~now:(now st) ~sel
               ~cls:key ~meth:m);
        m
      end
    end
  in
  if Oop.equal meth Oop.sentinel then
    send_does_not_understand st ~sel ~nargs ~recv ~recv_class ~class_receiver
  else begin
    let info = Ctx.minfo st meth in
    let prim = Layout.Minfo.prim info in
    if prim >= 135 && prim <= 137 then
      (* perform: and friends re-dispatch with the argument selector *)
      send_perform st ~nargs ~meth ~info
    else begin
      let outcome =
        if prim > 0 then Primitives.run st ~prim ~nargs else Primitives.Failed
      in
      match outcome with
      | Primitives.Ok_done | Primitives.Switched -> ()
      | Primitives.Failed ->
          if Layout.Minfo.nargs info <> nargs then
            raise (Does_not_understand "argument count mismatch");
          Ctx.activate_method st ~meth ~nargs
    end
  end

(* Lookup failed: assemble a Message object and send doesNotUnderstand:
   (Object's implementation reports an error; user classes may override). *)
and send_does_not_understand st ~sel ~nargs ~recv ~recv_class ~class_receiver =
  let u = st.sh.u in
  add_cost st st.sh.cm.Cost_model.prim_misc;
  let dnu = st.sh.sym_does_not_understand in
  let start = if class_receiver then recv else recv_class in
  let dnu_meth =
    lookup_method st ~start ~class_receiver ~sel:dnu ~probe_cost:0
  in
  if Oop.equal dnu_meth Oop.sentinel then begin
    let sel_name = Universe.symbol_name u sel in
    let cls_name =
      if class_receiver then Universe.class_name u recv ^ " class"
      else Universe.class_name u recv_class
    in
    raise (Does_not_understand (cls_name ^ ">>" ^ sel_name))
  end;
  (* allocations happen before any stack mutation so the send can be
     re-executed if a scavenge is needed *)
  let args_arr =
    Ctx.alloc_object st ~slots:nargs ~raw:false
      ~cls:u.Universe.classes.Universe.array ()
  in
  for i = 0 to nargs - 1 do
    store_with_check st args_arr i (peek st ~depth:(nargs - 1 - i))
  done;
  let message =
    Ctx.alloc_object st ~slots:2 ~raw:false
      ~cls:u.Universe.classes.Universe.message ()
  in
  store_with_check st message 0 sel;
  store_with_check st message 1 args_arr;
  popn st nargs;
  push st message;
  Ctx.activate_method st ~meth:dnu_meth ~nargs:1

(* receiver perform: selector [with: a [with: b]] — drop the selector
   argument from the stack and re-dispatch. *)
and send_perform st ~nargs ~meth ~info =
  ignore meth;
  ignore info;
  if nargs < 1 then raise (Does_not_understand "perform: without a selector")
  else begin
    let u = st.sh.u in
    let sel = peek st ~depth:(nargs - 1) in
    let is_symbol =
      Oop.is_ptr sel
      && Oop.equal (Universe.class_of u sel) u.Universe.classes.Universe.symbol
    in
    if not is_symbol then
      raise (Does_not_understand "perform: needs a Symbol")
    else begin
      (* shift the real arguments down over the selector slot *)
      let h = st.sh.heap in
      let ctx = !(st.active_ctx) in
      let sp = get_sp st in
      let base = Layout.Ctx.fixed_slots + sp - nargs in
      for i = 0 to nargs - 2 do
        store_with_check st ctx (base + i) (Heap.get h ctx (base + i + 1))
      done;
      popn st 1;
      add_cost st st.sh.cm.Cost_model.send_base;
      full_send st ~sel ~nargs:(nargs - 1) ~super:false
    end
  end

(* Fast path for the special arithmetic selectors on SmallIntegers: the
   Blue Book's "special selector" bytecodes, resolved here by comparing
   interned selector oops. *)
type special = Add | Sub | Mul | Lt | Gt | Le | Ge | Eq | Ne | Identical

type specials = {
  s_add : Oop.t; s_sub : Oop.t; s_mul : Oop.t;
  s_lt : Oop.t; s_gt : Oop.t; s_le : Oop.t; s_ge : Oop.t;
  s_eq : Oop.t; s_ne : Oop.t; s_id : Oop.t;
}

let make_specials u = {
  s_add = Universe.intern u "+";
  s_sub = Universe.intern u "-";
  s_mul = Universe.intern u "*";
  s_lt = Universe.intern u "<";
  s_gt = Universe.intern u ">";
  s_le = Universe.intern u "<=";
  s_ge = Universe.intern u ">=";
  s_eq = Universe.intern u "=";
  s_ne = Universe.intern u "~=";
  s_id = Universe.intern u "==";
}

let special_of specials sel =
  if Oop.equal sel specials.s_add then Some Add
  else if Oop.equal sel specials.s_sub then Some Sub
  else if Oop.equal sel specials.s_mul then Some Mul
  else if Oop.equal sel specials.s_lt then Some Lt
  else if Oop.equal sel specials.s_gt then Some Gt
  else if Oop.equal sel specials.s_le then Some Le
  else if Oop.equal sel specials.s_ge then Some Ge
  else if Oop.equal sel specials.s_eq then Some Eq
  else if Oop.equal sel specials.s_ne then Some Ne
  else if Oop.equal sel specials.s_id then Some Identical
  else None

(* --- the interpreter proper --- *)

type t = {
  st : State.t;
  specials : specials;
}
(* [idle_poll] is defined below [do_event_poll] *)

let create st = { st; specials = make_specials st.sh.u }

let literal st n = Heap.get st.sh.heap st.c_meth (Layout.Method.fixed_slots + n)

(* Handle a bottom-context return: the Process is finished. *)
let handle_return st ~from_ctx ~target ~value =
  if not (Ctx.return_to st ~from_ctx ~target ~value) then
    Primitives.finish_process st ~result:value

(* Periodic duty: poll the shared input event queue (serialized I/O). *)
let do_event_poll st =
  let cm = st.sh.cm in
  add_cost st cm.Cost_model.event_poll_cost;
  sync_to st
    (Devices.poll ~vp:st.id st.sh.input ~now:(now st) ~op_cycles:10);
  match Devices.polled st.sh.input with
  | Some _payload ->
      let sem = !(st.sh.input_semaphore) in
      if not (Oop.equal sem Oop.sentinel) && not (Oop.equal sem (nil st)) then
        Primitives.signal_semaphore st sem
  | None -> ()

(* An idle interpreter still watches for input events (it has nothing
   else to do); the engine calls this between ready-queue polls. *)
let idle_poll t = do_event_poll t.st

(* The processor-fault injection point.  Each scheduling check asks the
   injector whether this vp crashes (flagged here, delivered by the
   engine at the end of the step, so the step's shared-state work
   completes first) or stalls (a transient wedge: the clock jumps by [n]
   directly — not through [st.cost], which would inflate the bus
   multiplier for what is idle time).  The last live processor is never
   crashed: with nobody left to fail over to, the "system" is gone and
   there is no recovery story to exercise. *)
let check_faults st =
  let m = st.sh.machine in
  match Machine.injector m with
  | None -> ()
  | Some inj -> (
      match Fault.at inj Fault.Sched_check with
      | Some Fault.Vp_crash
        when Machine.active_count m > 1 && not (Machine.crash_pending m st.id)
        ->
          Fault.applied inj Fault.Vp_crash;
          Sanitizer.fault_event st.sh.sanitizer ~vp:st.id ~now:(now st)
            ~resource:"processor" "crash flagged at scheduling check";
          Machine.flag_crash m st.id
      | Some (Fault.Vp_stall n) ->
          Fault.applied inj (Fault.Vp_stall n);
          Sanitizer.fault_event st.sh.sanitizer ~vp:st.id ~now:(now st)
            ~resource:"processor"
            (Printf.sprintf "transient stall %d cycles" n);
          let vp = Machine.vp m st.id in
          vp.Machine.clock <- vp.Machine.clock + n;
          vp.Machine.fault_cycles <- vp.Machine.fault_cycles + n
      | Some _ | None -> ())

(* Periodic duty: look at the scheduler for preemption or state changes. *)
let do_sched_check st =
  check_faults st;
  let cm = st.sh.cm in
  let sched = st.sh.sched in
  let finish =
    Spinlock.locked_op ~vp:st.id
      (Scheduler.sched_check_lock sched ~vp:st.id)
      ~now:(now st) ~op_cycles:cm.Cost_model.sched_check_cost
  in
  sync_to st finish;
  let proc = !(st.active_process) in
  if Oop.equal proc Oop.sentinel then ()
  else begin
    let state = Scheduler.process_state sched proc in
    if state = Layout.Process_state.terminated then
      Primitives.finish_process st ~result:(nil st)
    else if state = Layout.Process_state.suspend_requested then begin
      Heap.set_raw st.sh.heap proc Layout.Process.state
        (Oop.of_small Layout.Process_state.runnable);
      Primitives.switch_away st ~requeue:false
    end
    else begin
      let preempt = Scheduler.take_preempt_flag sched st.id in
      let my_priority = Scheduler.priority_of sched proc in
      if preempt && Scheduler.better_ready sched ~than:my_priority then
        (* the preempted Process stays ready (MS keeps it in the queue) *)
        Primitives.switch_away st ~requeue:true
      else if Machine.take_forced_preempt st.sh.machine st.id then
        (* a scheduling-policy (explorer) preemption: behave like a yield
           at the scheduling check — requeue and repick, regardless of
           priorities, so the Process may migrate to another processor *)
        Primitives.switch_away st ~requeue:true
    end
  end

(* The dispatch below matches on the tag's literal values, which a
   [match] compiles to one jump table; these are the same numbers. *)
let () =
  assert (
    Opcode.tag_push_receiver = 0 && Opcode.tag_push_temp = 1
    && Opcode.tag_push_ivar = 2 && Opcode.tag_push_literal = 3
    && Opcode.tag_push_nil = 4 && Opcode.tag_push_true = 5
    && Opcode.tag_push_false = 6 && Opcode.tag_push_smallint = 7
    && Opcode.tag_push_global = 8 && Opcode.tag_push_block = 9
    && Opcode.tag_store_temp = 10 && Opcode.tag_store_ivar = 11
    && Opcode.tag_store_global = 12 && Opcode.tag_pop = 13
    && Opcode.tag_dup = 14 && Opcode.tag_send = 15
    && Opcode.tag_super_send = 16 && Opcode.tag_jump = 17
    && Opcode.tag_jump_if_true = 18 && Opcode.tag_jump_if_false = 19
    && Opcode.tag_return_top = 20 && Opcode.tag_return_receiver = 21
    && Opcode.tag_block_return = 22)

(* The special-selector fast path of a one-argument send: SmallInteger
   arithmetic and comparison, and [==] on anything, without a lookup.
   False when the full send must run. *)
let fast_special t ~sel =
  let st = t.st in
  match special_of t.specials sel with
  | None -> false
  | Some special ->
      let cm = st.sh.cm in
      let arg = peek st ~depth:0 and recv = peek st ~depth:1 in
      if Oop.is_small recv && Oop.is_small arg then begin
        let a = Oop.small_val recv and b = Oop.small_val arg in
        add_cost st cm.Cost_model.prim_arith;
        let u = st.sh.u in
        let t_ = u.Universe.true_ and f_ = u.Universe.false_ in
        (* [Oop.sentinel], never a SmallInteger or a heap oop, means
           no fast result: out of SmallInteger range, the full
           send's primitive fails over to the Smalltalk fallback *)
        let small r =
          if r >= Oop.min_small && r <= Oop.max_small then Oop.of_small r
          else Oop.sentinel
        in
        let r =
          match special with
          | Add -> small (a + b)
          | Sub -> small (a - b)
          | Mul ->
              let r = a * b in
              if b <> 0 && r / b <> a then Oop.sentinel else small r
          | Lt -> if a < b then t_ else f_
          | Gt -> if a > b then t_ else f_
          | Le -> if a <= b then t_ else f_
          | Ge -> if a >= b then t_ else f_
          | Eq | Identical -> if a = b then t_ else f_
          | Ne -> if a <> b then t_ else f_
        in
        if Oop.equal r Oop.sentinel then false
        else begin
          popn st 2;
          push st r;
          true
        end
      end
      else if (match special with Identical -> true | _ -> false) then begin
        add_cost st cm.Cost_model.prim_arith;
        let u = st.sh.u in
        let r =
          if Oop.equal arg recv then u.Universe.true_ else u.Universe.false_
        in
        popn st 2;
        push st r;
        true
      end
      else false

(* A full send; a context or primitive allocation may request a
   scavenge, so the pc is rewound and the send re-executes cleanly
   afterwards. *)
let send_rewinding st ~pc ~sel ~nargs ~super =
  try full_send st ~sel ~nargs ~super with
  | Heap.Scavenge_needed ->
      set_pc st pc;
      raise Heap.Scavenge_needed

(* Push [v] and step past a one-word push instruction. *)
let push_next st ~pc v =
  add_cost st st.sh.cm.Cost_model.push;
  push st v;
  set_pc st (pc + 1)

(* The periodic duties' countdown ran out: the event poll, the
   scheduling check or both are due.  The countdown is set for the next
   one before either runs. *)
let periodic_duties st =
  let cm = st.sh.cm in
  let ran = st.duty_span in
  let poll = st.until_poll - ran and sched = st.until_sched - ran in
  set_untils st
    ~poll:(if poll <= 0 then cm.Cost_model.event_poll_interval else poll)
    ~sched:(if sched <= 0 then cm.Cost_model.sched_check_interval else sched);
  if poll <= 0 then do_event_poll st;
  if sched <= 0 then do_sched_check st

let execute_bytecode t =
  let st = t.st in
  let cm = st.sh.cm in
  let h = st.sh.heap in
  let pc = get_pc st in
  if pc >= st.c_bc_len then
    vm_error "pc %d ran off the end of the method" pc;
  let w = h.Heap.mem.(st.c_bc_addr + pc) in
  add_cost st cm.Cost_model.dispatch;
  match Opcode.tag w with
  | 0 (* push_receiver *) -> push_next st ~pc st.c_recv
  | 1 (* push_temp *) -> push_next st ~pc h.Heap.mem.(st.c_home_frame + Opcode.a w)
  | 2 (* push_ivar *) -> push_next st ~pc h.Heap.mem.(st.c_ivar_base + Opcode.a w)
  | 3 (* push_literal *) -> push_next st ~pc (literal st (Opcode.a w))
  | 4 (* push_nil *) -> push_next st ~pc (nil st)
  | 5 (* push_true *) -> push_next st ~pc st.sh.u.Universe.true_
  | 6 (* push_false *) -> push_next st ~pc st.sh.u.Universe.false_
  | 7 (* push_smallint *) -> push_next st ~pc (Oop.of_small (Opcode.signed_a w))
  | 8 (* push_global *) ->
      push_next st ~pc (Heap.get h (literal st (Opcode.a w)) Layout.Association.value)
  | 9 (* push_block *) ->
      add_cost st (cm.Cost_model.push + cm.Cost_model.ctx_fresh);
      let b = Opcode.b w in
      let nargs = b land 0x1f and argstart = b lsr 5 in
      let body_len = Opcode.a w in
      let block =
        Ctx.create_block_ctx st ~startpc:(pc + 1) ~nargs ~argstart
      in
      push st block;
      set_pc st (pc + 1 + body_len)
  | 10 (* store_temp *) ->
      add_cost st cm.Cost_model.push;
      let home_base =
        st.c_home_frame - Layout.header_words - Layout.Ctx.fixed_slots
      in
      store_with_check st (Oop.of_addr home_base)
        (Layout.Ctx.fixed_slots + Opcode.a w) (peek st ~depth:0);
      set_pc st (pc + 1)
  | 11 (* store_ivar *) ->
      add_cost st (cm.Cost_model.push + cm.Cost_model.store_check);
      store_with_check st st.c_recv (Opcode.a w) (peek st ~depth:0);
      set_pc st (pc + 1)
  | 12 (* store_global *) ->
      add_cost st (cm.Cost_model.push + cm.Cost_model.store_check);
      let assoc = literal st (Opcode.a w) in
      store_with_check st assoc Layout.Association.value (peek st ~depth:0);
      set_pc st (pc + 1)
  | 13 (* pop *) ->
      add_cost st cm.Cost_model.push;
      popn st 1;
      set_pc st (pc + 1)
  | 14 (* dup *) -> push_next st ~pc (peek st ~depth:0)
  | 15 (* send *) ->
      let sel = literal st (Opcode.a w) in
      let nargs = Opcode.b w in
      set_pc st (pc + 1);
      if not (nargs = 1 && fast_special t ~sel) then
        send_rewinding st ~pc ~sel ~nargs ~super:false
  | 16 (* super_send *) ->
      let sel = literal st (Opcode.a w) in
      let nargs = Opcode.b w in
      set_pc st (pc + 1);
      send_rewinding st ~pc ~sel ~nargs ~super:true
  | 17 (* jump *) ->
      add_cost st cm.Cost_model.jump;
      set_pc st (pc + 1 + Opcode.signed_a w)
  | (18 | 19) as tag (* jump_if_true, jump_if_false *) ->
      add_cost st cm.Cost_model.jump;
      let v = pop st in
      let u = st.sh.u in
      let truth =
        if Oop.equal v u.Universe.true_ then true
        else if Oop.equal v u.Universe.false_ then false
        else raise Must_be_boolean
      in
      if (if tag = 18 then truth else not truth) then set_pc st (pc + 1 + Opcode.signed_a w)
      else set_pc st (pc + 1)
  | (20 | 21) as tag (* return_top, return_receiver *) ->
      add_cost st cm.Cost_model.return_cost;
      let n = nil st in
      let ctx = !(st.active_ctx) in
      let value = if tag = 20 then pop st else st.c_recv in
      let home = Heap.get h ctx Layout.Ctx.home in
      if Oop.equal home n then
        handle_return st ~from_ctx:ctx
          ~target:(Heap.get h ctx Layout.Ctx.sender) ~value
      else begin
        (* ^ inside a block: return from the home context's sender *)
        let target = Heap.get h home Layout.Ctx.sender in
        if Oop.equal target n then
          vm_error "block attempted a non-local return, but home has returned";
        (* sever the home chain so later ^-returns from the same home fail *)
        store_with_check st home Layout.Ctx.sender n;
        handle_return st ~from_ctx:ctx ~target ~value
      end
  | 22 (* block_return *) ->
      add_cost st cm.Cost_model.return_cost;
      let ctx = !(st.active_ctx) in
      let value = pop st in
      let target = Heap.get h ctx Layout.Ctx.sender in
      (* leave the block reusable for another value send *)
      store_with_check st ctx Layout.Ctx.sender (nil st);
      handle_return st ~from_ctx:ctx ~target ~value
  | tag -> vm_error "unknown bytecode tag %d at pc %d" tag pc

let step t =
  let st = t.st in
  st.cost <- 0;
  (* 1. make sure a Process is loaded *)
  if Oop.equal !(st.active_process) Oop.sentinel then begin
    Primitives.pick_next st;
    if Oop.equal !(st.active_process) Oop.sentinel then Idle
    else Ran  (* charge the pick as one step *)
  end
  else begin
    (* 2. eden head-room *)
    if Heap.region_avail st.eden < low_water_mark then Need_gc
    else begin
      (* 3. periodic duties *)
      st.until_duty <- st.until_duty - 1;
      if st.until_duty <= 0 then periodic_duties st;
      if Oop.equal !(st.active_process) Oop.sentinel then Ran
      else begin
        (* 4. refresh the context cache if the context changed *)
        if not (Oop.equal st.cached_ctx !(st.active_ctx)) then
          refresh_cache st;
        (* 5. one bytecode *)
        (try
           st.steps <- st.steps + 1;
           st.vp.Machine.steps <- st.vp.Machine.steps + 1;
           execute_bytecode t;
           (* a send or return may have changed the context *)
           Ran
         with
         | Heap.Scavenge_needed ->
             st.cost <- 0;
             Need_gc)
      end
    end
  end
