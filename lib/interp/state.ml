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
  (* the active Smalltalk Process and its context chain; these refs are
     registered as scavenge roots *)
  active_ctx : Oop.t ref;
  active_process : Oop.t ref;
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
  (* periodic duties *)
  mutable until_poll : int;
  mutable until_sched : int;
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
    active_ctx = ref Oop.sentinel;
    active_process = ref Oop.sentinel;
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
    steps = 0;
    sends = 0;
    ctx_switches = 0;
  } in
  Heap.add_root sh.heap st.active_ctx;
  Heap.add_root sh.heap st.active_process;
  st

let nil st = st.sh.u.Universe.nil

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

let get_pc st = Oop.small_val (Heap.get st.sh.heap !(st.active_ctx) Layout.Ctx.pc)
let set_pc st pc =
  Heap.set_raw st.sh.heap !(st.active_ctx) Layout.Ctx.pc (Oop.of_small pc)

let get_sp st =
  Oop.small_val (Heap.get st.sh.heap !(st.active_ctx) Layout.Ctx.stackp)
let set_sp st sp =
  Heap.set_raw st.sh.heap !(st.active_ctx) Layout.Ctx.stackp (Oop.of_small sp)

(* Pointer store with the generation-scavenging store check; an insertion
   into the entry table passes through the entry-table lock (serialization,
   paper section 3.1) — acquired before the store, so the insert happens
   inside the critical section. *)
let store_with_check st obj i v =
  let h = st.sh.heap in
  if Heap.store_would_remember h obj v then begin
    let finish, () =
      Spinlock.critical ~vp:st.id st.sh.entry_lock ~now:(now st)
        ~op_cycles:st.sh.cm.Cost_model.remember_insert (fun () ->
          ignore (Heap.store_ptr h obj i v))
    in
    sync_to st finish
  end
  else ignore (Heap.store_ptr h obj i v)

let push st v =
  let sp = get_sp st in
  store_with_check st !(st.active_ctx) (Layout.Ctx.fixed_slots + sp) v;
  set_sp st (sp + 1)

let pop st =
  let sp = get_sp st - 1 in
  let v = Heap.get st.sh.heap !(st.active_ctx) (Layout.Ctx.fixed_slots + sp) in
  set_sp st sp;
  v

let peek st ~depth =
  let sp = get_sp st in
  Heap.get st.sh.heap !(st.active_ctx) (Layout.Ctx.fixed_slots + sp - 1 - depth)

let popn st n = set_sp st (get_sp st - n)
