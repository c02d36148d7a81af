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

let lookup_in_dict st dict sel ~probes =
  let h = st.sh.heap in
  let sels = Heap.get h dict Layout.Mdict.selectors in
  let meths = Heap.get h dict Layout.Mdict.methods in
  let size = Oop.small_val (Heap.get h dict Layout.Mdict.size) in
  let rec scan i =
    if i >= size then None
    else begin
      incr probes;
      if Oop.equal (Heap.get h sels i) sel then Some (Heap.get h meths i)
      else scan (i + 1)
    end
  in
  scan 0

(* Full lookup along the superclass chain starting at [start].  For a
   class receiver, [start] is the receiver itself: its class-side
   dictionaries are searched first, then the instance protocol of Class
   (the simplified metaclass model). *)
let lookup_method st ~start ~class_receiver ~sel ~probes =
  let h = st.sh.heap in
  let u = st.sh.u in
  let n = nil st in
  let rec walk cls ~field =
    if Oop.equal cls n || Oop.equal cls Oop.sentinel then None
    else
      match lookup_in_dict st (Heap.get h cls field) sel ~probes with
      | Some m -> Some m
      | None -> walk (Heap.get h cls Layout.Class.superclass) ~field
  in
  if class_receiver then
    match walk start ~field:Layout.Class.class_method_dict with
    | Some m -> Some m
    | None ->
        (* fall back to Class/Object instance protocol *)
        walk u.Universe.classes.Universe.class_c ~field:Layout.Class.method_dict
  else walk start ~field:Layout.Class.method_dict

(* Behaviour key for the method cache: a class receiver's class-side
   lookup must not collide with the instance-side lookup of its
   instances. *)
let behavior_key ~class_receiver ~recv ~recv_class =
  if class_receiver then recv lor 1 else recv_class

exception Does_not_understand of string

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
  let meth =
    if super then begin
      (* lookup starts above the defining class of the running method *)
      let defining = Heap.get st.sh.heap st.c_meth Layout.Method.defining_class in
      let parent = Heap.get st.sh.heap defining Layout.Class.superclass in
      let class_side = Layout.Minfo.class_side (Ctx.minfo st st.c_meth) in
      let probes = ref 0 in
      let m =
        lookup_method st ~start:parent ~class_receiver:class_side ~sel ~probes
      in
      add_cost st (cm.Cost_model.cache_probe + (!probes * 2));
      m
    end
    else begin
      let key = behavior_key ~class_receiver ~recv ~recv_class in
      let now0 = now st in
      let now1, cached =
        Method_cache.probe ~vp:st.id st.mcache ~now:now0 ~sel ~cls:key
      in
      sync_to st now1;
      match cached with
      | Some m ->
          add_cost st
            (cm.Cost_model.cache_hit
             + (match st.mcache.Method_cache.mode with
                | Method_cache.Replicated -> cm.Cost_model.replicated_cache_penalty
                | Method_cache.Shared_locked _ -> 0));
          Some m
      | None ->
          let probes = ref 0 in
          let start = if class_receiver then recv else recv_class in
          let m = lookup_method st ~start ~class_receiver ~sel ~probes in
          add_cost st (cm.Cost_model.cache_probe + (!probes * 4));
          (match m with
           | Some m ->
               let now2 =
                 Method_cache.fill ~vp:st.id st.mcache ~now:(now st) ~sel
                   ~cls:key ~meth:m
               in
               sync_to st now2
           | None -> ());
          m
    end
  in
  match meth with
  | None -> send_does_not_understand st ~sel ~nargs ~recv ~recv_class ~class_receiver
  | Some meth ->
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

(* Lookup failed: assemble a Message object and send doesNotUnderstand:
   (Object's implementation reports an error; user classes may override). *)
and send_does_not_understand st ~sel ~nargs ~recv ~recv_class ~class_receiver =
  let u = st.sh.u in
  add_cost st st.sh.cm.Cost_model.prim_misc;
  let dnu = st.sh.sym_does_not_understand in
  let probes = ref 0 in
  let start = if class_receiver then recv else recv_class in
  match lookup_method st ~start ~class_receiver ~sel:dnu ~probes with
  | None ->
      let sel_name = Universe.symbol_name u sel in
      let cls_name =
        if class_receiver then Universe.class_name u recv ^ " class"
        else Universe.class_name u recv_class
      in
      raise (Does_not_understand (cls_name ^ ">>" ^ sel_name))
  | Some dnu_meth ->
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
  let finish, ev =
    Devices.poll ~vp:st.id st.sh.input ~now:(now st) ~op_cycles:10
  in
  sync_to st finish;
  match ev with
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
          Fault.applied inj ~vp:st.id ~now:(now st) ~resource:"processor"
            Fault.Vp_crash;
          Sanitizer.fault_event st.sh.sanitizer ~vp:st.id ~now:(now st)
            ~resource:"processor" "crash flagged at scheduling check";
          Machine.flag_crash m st.id
      | Some (Fault.Vp_stall n) ->
          Fault.applied inj ~vp:st.id ~now:(now st) ~resource:"processor"
            (Fault.Vp_stall n);
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

let execute_bytecode t =
  let st = t.st in
  let cm = st.sh.cm in
  let h = st.sh.heap in
  let n = nil st in
  let pc = get_pc st in
  if pc >= st.c_bc_len then
    vm_error "pc %d ran off the end of the method" pc;
  let w = h.Heap.mem.(st.c_bc_addr + pc) in
  add_cost st cm.Cost_model.dispatch;
  let tag = Opcode.tag w in
  if tag = Opcode.tag_push_temp then begin
    add_cost st cm.Cost_model.push;
    push st h.Heap.mem.(st.c_home_frame + Opcode.a w);
    set_pc st (pc + 1)
  end
  else if tag = Opcode.tag_push_ivar then begin
    add_cost st cm.Cost_model.push;
    push st h.Heap.mem.(st.c_ivar_base + Opcode.a w);
    set_pc st (pc + 1)
  end
  else if tag = Opcode.tag_push_literal then begin
    add_cost st cm.Cost_model.push;
    push st (literal st (Opcode.a w));
    set_pc st (pc + 1)
  end
  else if tag = Opcode.tag_push_receiver then begin
    add_cost st cm.Cost_model.push;
    push st st.c_recv;
    set_pc st (pc + 1)
  end
  else if tag = Opcode.tag_push_nil then begin
    add_cost st cm.Cost_model.push;
    push st n;
    set_pc st (pc + 1)
  end
  else if tag = Opcode.tag_push_true then begin
    add_cost st cm.Cost_model.push;
    push st st.sh.u.Universe.true_;
    set_pc st (pc + 1)
  end
  else if tag = Opcode.tag_push_false then begin
    add_cost st cm.Cost_model.push;
    push st st.sh.u.Universe.false_;
    set_pc st (pc + 1)
  end
  else if tag = Opcode.tag_push_smallint then begin
    add_cost st cm.Cost_model.push;
    push st (Oop.of_small (Opcode.signed_a w));
    set_pc st (pc + 1)
  end
  else if tag = Opcode.tag_push_global then begin
    add_cost st cm.Cost_model.push;
    let assoc = literal st (Opcode.a w) in
    push st (Heap.get h assoc Layout.Association.value);
    set_pc st (pc + 1)
  end
  else if tag = Opcode.tag_store_temp then begin
    add_cost st cm.Cost_model.push;
    let home_base =
      st.c_home_frame - Layout.header_words - Layout.Ctx.fixed_slots
    in
    store_with_check st (Oop.of_addr home_base)
      (Layout.Ctx.fixed_slots + Opcode.a w) (peek st ~depth:0);
    set_pc st (pc + 1)
  end
  else if tag = Opcode.tag_store_ivar then begin
    add_cost st (cm.Cost_model.push + cm.Cost_model.store_check);
    store_with_check st st.c_recv (Opcode.a w) (peek st ~depth:0);
    set_pc st (pc + 1)
  end
  else if tag = Opcode.tag_store_global then begin
    add_cost st (cm.Cost_model.push + cm.Cost_model.store_check);
    let assoc = literal st (Opcode.a w) in
    store_with_check st assoc Layout.Association.value (peek st ~depth:0);
    set_pc st (pc + 1)
  end
  else if tag = Opcode.tag_pop then begin
    add_cost st cm.Cost_model.push;
    ignore (pop st);
    set_pc st (pc + 1)
  end
  else if tag = Opcode.tag_dup then begin
    add_cost st cm.Cost_model.push;
    push st (peek st ~depth:0);
    set_pc st (pc + 1)
  end
  else if tag = Opcode.tag_jump then begin
    add_cost st cm.Cost_model.jump;
    set_pc st (pc + 1 + Opcode.signed_a w)
  end
  else if tag = Opcode.tag_jump_if_true || tag = Opcode.tag_jump_if_false then begin
    add_cost st cm.Cost_model.jump;
    let v = pop st in
    let u = st.sh.u in
    let truth =
      if Oop.equal v u.Universe.true_ then true
      else if Oop.equal v u.Universe.false_ then false
      else raise Must_be_boolean
    in
    let taken = if tag = Opcode.tag_jump_if_true then truth else not truth in
    if taken then set_pc st (pc + 1 + Opcode.signed_a w)
    else set_pc st (pc + 1)
  end
  else if tag = Opcode.tag_send then begin
    let sel = literal st (Opcode.a w) in
    let nargs = Opcode.b w in
    set_pc st (pc + 1);
    (* special-selector fast path: SmallInteger arithmetic without lookup *)
    let fast =
      if nargs = 1 then begin
        match special_of t.specials sel with
        | Some special ->
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
            else if (match special with Identical -> true | _ -> false)
            then begin
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
        | None -> false
      end
      else false
    in
    if not fast then
      (* a context or primitive allocation may request a scavenge; the pc
         must be rewound so the send re-executes cleanly afterwards *)
      (try full_send st ~sel ~nargs ~super:false with
       | Heap.Scavenge_needed ->
           set_pc st pc;
           raise Heap.Scavenge_needed)
  end
  else if tag = Opcode.tag_super_send then begin
    let sel = literal st (Opcode.a w) in
    let nargs = Opcode.b w in
    set_pc st (pc + 1);
    (try full_send st ~sel ~nargs ~super:true with
     | Heap.Scavenge_needed ->
         set_pc st pc;
         raise Heap.Scavenge_needed)
  end
  else if tag = Opcode.tag_push_block then begin
    add_cost st (cm.Cost_model.push + cm.Cost_model.ctx_fresh);
    let b = Opcode.b w in
    let nargs = b land 0x1f and argstart = b lsr 5 in
    let body_len = Opcode.a w in
    let block =
      Ctx.create_block_ctx st ~startpc:(pc + 1) ~nargs ~argstart
    in
    push st block;
    set_pc st (pc + 1 + body_len)
  end
  else if tag = Opcode.tag_return_top || tag = Opcode.tag_return_receiver then begin
    add_cost st cm.Cost_model.return_cost;
    let ctx = !(st.active_ctx) in
    let value =
      if tag = Opcode.tag_return_top then pop st else st.c_recv
    in
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
  end
  else if tag = Opcode.tag_block_return then begin
    add_cost st cm.Cost_model.return_cost;
    let ctx = !(st.active_ctx) in
    let value = pop st in
    let target = Heap.get h ctx Layout.Ctx.sender in
    (* leave the block reusable for another value send *)
    store_with_check st ctx Layout.Ctx.sender n;
    handle_return st ~from_ctx:ctx ~target ~value
  end
  else vm_error "unknown bytecode tag %d at pc %d" tag pc

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
    if Heap.eden_avail st.sh.heap ~vp:st.id < low_water_mark then Need_gc
    else begin
      (* 3. periodic duties *)
      st.until_poll <- st.until_poll - 1;
      if st.until_poll <= 0 then begin
        st.until_poll <- st.sh.cm.Cost_model.event_poll_interval;
        do_event_poll st
      end;
      st.until_sched <- st.until_sched - 1;
      if st.until_sched <= 0 then begin
        st.until_sched <- st.sh.cm.Cost_model.sched_check_interval;
        do_sched_check st
      end;
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
