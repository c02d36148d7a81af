(* Per-interpreter state.  One of these exists for every virtual processor;
   replicating it (and the resources inside it) is how MS obtains
   parallelism: "we obtain parallelism by replicating the interpreter
   itself".

   The shared resources — the scheduler, the heap and its allocation lock,
   the entry-table lock, the devices — are referenced from every state and
   guarded according to the configured strategies. *)

exception Vm_error of string

let vm_error fmt = Printf.ksprintf (fun s -> raise (Vm_error s)) fmt

(* What happens when a timer's deadline is reached.  [Signal_sem]
   signals a Smalltalk semaphore (the Delay path); [Run_hook] calls back
   into engine-side OCaml — the image server schedules request arrivals
   this way, and a hook may add further timers while firing. *)
type timer_action =
  | Signal_sem of Oop.t ref             (* rooted semaphore cell *)
  | Run_hook of (now:int -> unit)

type shared = {
  u : Universe.t;
  heap : Heap.t;
  cm : Cost_model.t;
  machine : Machine.t;
  sched : Scheduler.t;
  alloc_lock : Spinlock.t;
  entry_lock : Spinlock.t;
  display : Devices.display;
  input : Devices.input_queue;
  transcript : Buffer.t;                  (* everything Transcript show: wrote *)
  (* specials resolved once at bootstrap *)
  mutable sym_does_not_understand : Oop.t;
  input_semaphore : Oop.t ref;            (* signalled on input events *)
  (* engine callbacks *)
  mutable on_terminate : Oop.t -> Oop.t -> unit;  (* process, result *)
  mutable on_method_install : unit -> unit;  (* flush the method caches *)
  (* pending timers, a stable min-heap keyed by absolute fire cycle *)
  timers : timer_action Calendar.t;
  mutable gc_wanted : bool;               (* set by the scavenge primitive *)
  (* E17 image-server plumbing: request ids ride the mailbox from the
     arrival generator to the worker pool; completions call back out *)
  mutable request_mailbox : int Mailbox.t option;
  mutable on_request_done : rid:int -> now:int -> unit;
  (* compiler hooks, installed by the image layer to avoid a dependency
     cycle (the compile/decompile primitives call up into stcompile) *)
  compile_hook : cls:Oop.t -> class_side:bool -> string -> Oop.t;
  decompile_hook : meth:Oop.t -> string;
  (* serialization checking; mode Off unless configured *)
  sanitizer : Sanitizer.t;
}

type t = {
  id : int;                      (* virtual processor id *)
  sh : shared;
  vp : Machine.vp;
  mcache : Method_cache.t;
  free_ctxs : Free_contexts.t;
  eden : Heap.region;            (* the eden region this processor fills *)
  (* the active Smalltalk Process and its context chain; these refs are
     registered as scavenge roots *)
  active_ctx : Oop.t ref;
  active_process : Oop.t ref;
  (* the active context's pc and stackp, held in registers as Berkeley
     Smalltalk did: loaded whenever [active_ctx] changes, written back to
     the context by [flush_regs] (see state.mli for when) *)
  mutable r_pc : int;
  mutable r_sp : int;
  (* cycles accumulated while executing the current step *)
  mutable cost : int;
  (* cached decode of the active context; invalidated on context switch
     and after every scavenge *)
  mutable cached_ctx : Oop.t;
  mutable c_meth : Oop.t;
  mutable c_bc_addr : int;       (* first bytecode word address *)
  mutable c_bc_len : int;
  mutable c_frame : int;         (* address of frame slot 0 *)
  mutable c_home_frame : int;    (* address of home frame slot 0 *)
  mutable c_recv : Oop.t;
  mutable c_ivar_base : int;     (* address of receiver's first field *)
  (* periodic duties, on one countdown: [until_duty] steps remain to the
     nearer duty, which with the other was [until_poll]/[until_sched]
     steps away [duty_span] steps ago (see [untils]) *)
  mutable until_poll : int;
  mutable until_sched : int;
  mutable until_duty : int;
  mutable duty_span : int;
  (* statistics *)
  mutable steps : int;
  mutable sends : int;
  mutable ctx_switches : int;
}

let make ~id ~sh ~mcache ~free_ctxs =
  let st = {
    id;
    sh;
    vp = Machine.vp sh.machine id;
    mcache;
    free_ctxs;
    eden = Heap.eden_region sh.heap id;
    active_ctx = ref Oop.sentinel;
    active_process = ref Oop.sentinel;
    r_pc = 0;
    r_sp = 0;
    cost = 0;
    cached_ctx = Oop.sentinel;
    c_meth = Oop.sentinel;
    c_bc_addr = 0;
    c_bc_len = 0;
    c_frame = 0;
    c_home_frame = 0;
    c_recv = Oop.sentinel;
    c_ivar_base = 0;
    until_poll = sh.cm.Cost_model.event_poll_interval;
    until_sched = sh.cm.Cost_model.sched_check_interval;
    until_duty = 0;
    duty_span = 0;
    steps = 0;
    sends = 0;
    ctx_switches = 0;
  } in
  st.until_duty <- Int.min st.until_poll st.until_sched;
  st.duty_span <- st.until_duty;
  Heap.add_root sh.heap st.active_ctx;
  Heap.add_root sh.heap st.active_process;
  st

let nil st = st.sh.u.Universe.nil

(* Steps left until the next event poll and the next scheduling check. *)
let untils st =
  let ran = st.duty_span - st.until_duty in
  (st.until_poll - ran, st.until_sched - ran)

let set_untils st ~poll ~sched =
  st.until_poll <- poll;
  st.until_sched <- sched;
  st.until_duty <- Int.min poll sched;
  st.duty_span <- st.until_duty

(* Virtual time at the current point inside the running step. *)
let now st = st.vp.Machine.clock + st.cost

let add_cost st c = st.cost <- st.cost + c

(* Absorb the result of a timeline operation (lock, device) that returned
   an absolute completion time. *)
let sync_to st finish =
  let n = now st in
  if finish > n then st.cost <- st.cost + (finish - n)

let invalidate_cache st = st.cached_ctx <- Oop.sentinel

(* Recompute the cached context decode.  Called lazily from the step
   function whenever [active_ctx] differs from [cached_ctx]. *)
let refresh_cache st =
  let h = st.sh.heap in
  let ctx = !(st.active_ctx) in
  let n = nil st in
  let meth = Heap.get h ctx Layout.Ctx.meth in
  let bc = Heap.get h meth Layout.Method.bytecodes in
  let home = Heap.get h ctx Layout.Ctx.home in
  let home_ctx = if Oop.equal home n then ctx else home in
  let recv = Heap.get h ctx Layout.Ctx.receiver in
  st.cached_ctx <- ctx;
  st.c_meth <- meth;
  st.c_bc_addr <- Oop.addr bc + Layout.header_words;
  st.c_bc_len <- Heap.slots h (Oop.addr bc);
  st.c_frame <- Oop.addr ctx + Layout.header_words + Layout.Ctx.fixed_slots;
  st.c_home_frame <-
    Oop.addr home_ctx + Layout.header_words + Layout.Ctx.fixed_slots;
  st.c_recv <- recv;
  st.c_ivar_base <-
    (if Oop.is_small recv then 0 else Oop.addr recv + Layout.header_words)

(* --- context stack operations (on the active context) --- *)

(* Reload the pc/sp registers from the active context. *)
let load_regs st =
  let ctx = !(st.active_ctx) in
  if not (Oop.equal ctx Oop.sentinel) then begin
    let h = st.sh.heap in
    st.r_pc <- Oop.small_val (Heap.get h ctx Layout.Ctx.pc);
    st.r_sp <- Oop.small_val (Heap.get h ctx Layout.Ctx.stackp)
  end

(* Write the pc/sp registers back to the active context. *)
let flush_regs st =
  let ctx = !(st.active_ctx) in
  if not (Oop.equal ctx Oop.sentinel) then begin
    let h = st.sh.heap in
    Heap.set_raw h ctx Layout.Ctx.pc (Oop.of_small st.r_pc);
    Heap.set_raw h ctx Layout.Ctx.stackp (Oop.of_small st.r_sp)
  end

(* Make [ctx] (or [Oop.sentinel]: none) the active context, dropping the
   registers of the one before: its heap was just replaced. *)
let enter_ctx st ctx =
  st.active_ctx := ctx;
  invalidate_cache st;
  load_regs st

(* Make [ctx] (or [Oop.sentinel]: none) the active context. *)
let set_active_ctx st ctx =
  flush_regs st;
  enter_ctx st ctx

let get_pc st = st.r_pc
let set_pc st pc = st.r_pc <- pc
let get_sp st = st.r_sp
let set_sp st sp = st.r_sp <- sp

(* Pointer store with the generation-scavenging store check; an insertion
   into the entry table passes through the entry-table lock (serialization,
   paper section 3.1) — acquired before the store, so the insert happens
   inside the critical section.  The insert is rare and stays out of
   line; the plain store is inlined at every caller. *)
let[@inline never] store_remembering st obj i v =
  let h = st.sh.heap in
  let lock = st.sh.entry_lock in
  Spinlock.enter lock ~vp:st.id ~now:(now st)
    ~op_cycles:st.sh.cm.Cost_model.remember_insert;
  (match Heap.store_ptr h obj i v with
   | (_ : bool) -> ()
   | exception e ->
       Spinlock.leave_raised lock ~vp:st.id;
       raise e);
  sync_to st (Spinlock.leave lock ~vp:st.id)

let store_with_check st obj i v =
  let h = st.sh.heap in
  if Heap.store_would_remember h obj v then store_remembering st obj i v
  else begin
    (* [Heap.store_ptr] without its entry-table test, just answered *)
    Heap.set_raw h obj i v;
    Heap.major_note h v
  end

let push st v =
  let sp = st.r_sp in
  store_with_check st !(st.active_ctx) (Layout.Ctx.fixed_slots + sp) v;
  set_sp st (sp + 1)

let pop st =
  let sp = st.r_sp - 1 in
  let v = Heap.get st.sh.heap !(st.active_ctx) (Layout.Ctx.fixed_slots + sp) in
  set_sp st sp;
  v

let peek st ~depth =
  Heap.get st.sh.heap !(st.active_ctx)
    (Layout.Ctx.fixed_slots + st.r_sp - 1 - depth)

let popn st n = set_sp st (st.r_sp - n)
