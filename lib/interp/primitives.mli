(** The primitive operations of the virtual machine.

    Primitives follow Smalltalk-80 semantics: they run when a send
    reaches a method carrying a [<primitive: n>] pragma, before any state
    has been mutated; on failure the method body runs instead.  This
    fall-through is what lets MS introduce new primitives (thisProcess,
    canRun:) while remaining image-compatible with BS (paper section 3.3).

    Numbering (loosely after the Blue Book): 1-17 SmallInteger arithmetic;
    41-49 Floats; 60-76 storage and symbols; 80 block value; 85-95
    Processes and Semaphores (93 thisProcess and 94 canRun: are MS's
    reorganized primitives); 100-107 I/O, clock, timers and the image
    server's request channel; 110-117
    programming-environment services; 120-122 error/scavenge/GC stats;
    135-137 perform: (dispatched by the interpreter); 140-141
    Characters. *)

type outcome =
  | Ok_done  (** arguments consumed, result pushed *)
  | Failed  (** nothing changed; run the method body *)
  | Switched  (** the context or process changed; the send is complete *)

(** {2 Process machinery shared with the interpreter and engine} *)

(** Save the running context into the active Process. *)
val save_active_context : State.t -> unit

val load_process : State.t -> Oop.t -> unit

(** Pick the next Process from the ready queue; leaves the interpreter
    idle when there is none. *)
val pick_next : State.t -> unit

(** The active Process stops running; [requeue] keeps it eligible. *)
val switch_away : State.t -> requeue:bool -> unit

(** The active Process finished (bottom return) or was terminated:
    notifies the engine and switches away. *)
val finish_process : State.t -> result:Oop.t -> unit

(** Signal a semaphore: wake a waiter or bump the excess count. *)
val signal_semaphore : State.t -> Oop.t -> unit

(** {2 Allocation helpers used by the interpreter} *)

val new_string_obj : State.t -> string -> Oop.t

val new_array_obj : State.t -> Oop.t list -> Oop.t

(** Run primitive [prim] for a send with [nargs] arguments on the stack. *)
val run : State.t -> prim:int -> nargs:int -> outcome
