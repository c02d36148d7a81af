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
  active_ctx : Oop.t ref;  (** registered as a scavenge root *)
  active_process : Oop.t ref;  (** likewise *)
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
  mutable steps : int;
  mutable sends : int;
  mutable ctx_switches : int;
}

val make :
  id:int -> sh:shared -> mcache:Method_cache.t -> free_ctxs:Free_contexts.t -> t

val nil : t -> Oop.t

(** Virtual time at the current point inside the running step. *)
val now : t -> int

val add_cost : t -> int -> unit

(** Absorb a timeline operation's absolute completion time into the
    step's cost. *)
val sync_to : t -> int -> unit

val invalidate_cache : t -> unit

val refresh_cache : t -> unit

(** {2 Context stack operations (on the active context)} *)

val get_pc : t -> int

val set_pc : t -> int -> unit

val get_sp : t -> int

(** Pointer store with the store check; an entry-table insertion passes
    through the entry-table lock. *)
val store_with_check : t -> Oop.t -> int -> Oop.t -> unit

val push : t -> Oop.t -> unit

val pop : t -> Oop.t

val peek : t -> depth:int -> Oop.t

val popn : t -> int -> unit
