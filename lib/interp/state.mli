(** Per-interpreter state: one per virtual processor.

    Replicating this (and the resources inside it) is how MS obtains
    parallelism — "we obtain parallelism by replicating the interpreter
    itself".  The shared resources (scheduler, heap, allocation and
    entry-table locks, devices) are referenced from every state and
    guarded according to the configured strategies. *)

(** A VM-level error: Smalltalk [error:], mustBeBoolean, and friends. *)
exception Vm_error of string

val vm_error : ('a, unit, string, 'b) format4 -> 'a

(** What a timer does when its deadline is reached: signal a Smalltalk
    semaphore (the Delay path) or run an engine-side hook (the image
    server's arrival generators; a hook may add further timers). *)
type timer_action =
  | Signal_sem of Oop.t ref  (** rooted semaphore cell *)
  | Run_hook of (now:int -> unit)

type shared = {
  u : Universe.t;
  heap : Heap.t;
  cm : Cost_model.t;
  machine : Machine.t;
  sched : Scheduler.t;
  alloc_lock : Spinlock.t;  (** serialized allocation (paper section 3.1) *)
  entry_lock : Spinlock.t;  (** entry-table maintenance *)
  display : Devices.display;
  input : Devices.input_queue;
  transcript : Buffer.t;  (** everything [Transcript show:] wrote on this VM *)
  mutable sym_does_not_understand : Oop.t;
  input_semaphore : Oop.t ref;  (** signalled on input events (rooted) *)
  mutable on_terminate : Oop.t -> Oop.t -> unit;  (** process, result *)
  mutable on_method_install : unit -> unit;  (** flush the method caches *)
  timers : timer_action Calendar.t;
      (** pending timers, a stable min-heap keyed by absolute fire cycle *)
  mutable gc_wanted : bool;  (** set by the scavenge primitive *)
  mutable request_mailbox : int Mailbox.t option;
      (** E17 image server: request ids ride this mailbox from the
          arrival generators to the worker pool *)
  mutable on_request_done : rid:int -> now:int -> unit;
      (** E17 image server: completion callback (latency bookkeeping and
          closed-loop arrival scheduling) *)
  compile_hook : cls:Oop.t -> class_side:bool -> string -> Oop.t;
      (** installed by the VM assembly to avoid a dependency cycle: the
          compile primitive calls up into stcompile *)
  decompile_hook : meth:Oop.t -> string;
  sanitizer : Sanitizer.t;  (** serialization checking; Off by default *)
}

type t = {
  id : int;  (** virtual processor id *)
  sh : shared;
  vp : Machine.vp;
  mcache : Method_cache.t;
  free_ctxs : Free_contexts.t;
  eden : Heap.region;  (** the eden region this processor allocates in *)
  active_ctx : Oop.t ref;  (** registered as a scavenge root *)
  active_process : Oop.t ref;  (** likewise *)
  mutable r_pc : int;
      (** the active context's pc, whenever [active_ctx] holds a context
          (see {!set_active_ctx}) *)
  mutable r_sp : int;  (** likewise its stackp *)
  mutable cost : int;  (** cycles accumulated during the current step *)
  mutable cached_ctx : Oop.t;
      (** the context the [c_*] fields describe; invalidated on context
          switches and scavenges *)
  mutable c_meth : Oop.t;
  mutable c_bc_addr : int;
  mutable c_bc_len : int;
  mutable c_frame : int;
  mutable c_home_frame : int;
  mutable c_recv : Oop.t;
  mutable c_ivar_base : int;
  mutable until_poll : int;
  mutable until_sched : int;
  mutable until_duty : int;
      (** the periodic duties' one countdown: steps left to the nearer
          duty.  [until_poll] and [until_sched] hold the steps each duty
          was away when it was last set, [duty_span] steps ago; read
          them with {!untils} *)
  mutable duty_span : int;
  mutable steps : int;
  mutable sends : int;
  mutable ctx_switches : int;
}

val make :
  id:int -> sh:shared -> mcache:Method_cache.t -> free_ctxs:Free_contexts.t -> t

val nil : t -> Oop.t

(** Steps left until the next event poll and the next scheduling check. *)
val untils : t -> int * int

(** Set both (each at least 1), as {!untils} reports them. *)
val set_untils : t -> poll:int -> sched:int -> unit

(** Virtual time at the current point inside the running step. *)
val now : t -> int

val add_cost : t -> int -> unit

(** Absorb a timeline operation's absolute completion time into the
    step's cost. *)
val sync_to : t -> int -> unit

val invalidate_cache : t -> unit

val refresh_cache : t -> unit

(** {2 Context stack operations (on the active context)} *)

(** The pc/sp registers.  While [active_ctx] holds a context, [r_pc]
    and [r_sp] are its pc and stackp, and {!get_pc}/{!set_pc},
    {!get_sp} and the stack operations use only them: the
    context's own [pc] and [stackp] slots are stale until
    {!flush_regs} writes the registers back.  Whatever reads those slots
    of an active context flushes first:
    - {!set_active_ctx}, at every context and Process switch;
    - the engine, before every scavenge, major slice and forced major
      completion, at a crash ([Vm.crash_vp]) and when [Vm.run] returns,
      so a census, [Verify.check] or [Snapshot.capture] between runs
      reads current slots;
    - [instVarAt:] and [instVarAt:put:] on the active context.
    Only a store into the active context's slots that bypasses the
    registers needs {!load_regs}; a heap replaced under the interpreter
    ([Replica]'s restore) needs {!enter_ctx}. *)

(** Write the registers back to the active context (none: no-op). *)
val flush_regs : t -> unit

(** Reload the registers from the active context. *)
val load_regs : t -> unit

(** Make a context (or [Oop.sentinel]: none) the active one: flush the
    registers to the old one, drop the cached decode and load the new
    one's pc/sp.  Every other change of [active_ctx] goes through here. *)
val set_active_ctx : t -> Oop.t -> unit

(** {!set_active_ctx} without the flush, for a heap whose contents were
    replaced since the registers were loaded. *)
val enter_ctx : t -> Oop.t -> unit

val get_pc : t -> int

val set_pc : t -> int -> unit

val get_sp : t -> int

val set_sp : t -> int -> unit

(** Pointer store with the store check; an entry-table insertion passes
    through the entry-table lock. *)
val store_with_check : t -> Oop.t -> int -> Oop.t -> unit

val push : t -> Oop.t -> unit

val pop : t -> Oop.t

val peek : t -> depth:int -> Oop.t

val popn : t -> int -> unit
