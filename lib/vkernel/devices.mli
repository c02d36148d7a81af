(** Simulated I/O devices.

    The paper serializes two I/O structures: the input event queue shared
    by the interpreters and the display controller's output queue, both
    behind spin-locks.  The display controller drains its bounded queue at
    a fixed service rate; producers wait when it is full — how the "busy"
    Processes contend for the display. *)

(** {2 The display controller} *)

type display

(** [make_display ~lock ~cost] builds the controller's queue behind
    [lock], whose sanitizer and machine it reports to and whose name is
    the queue's resource name; [cost] supplies the paint time and the
    queue capacity. *)
val make_display : lock:Spinlock.t -> cost:Cost_model.t -> display

(** Enqueue one draw command at [now]; returns the producer's completion
    time (it waits for queue space and the lock, not the paint). *)
val display_enqueue : ?vp:int -> display -> now:int -> int

val display_commands : display -> int

(** Total cycles producers spent waiting for queue space. *)
val display_producer_wait : display -> int

(** Injected controller wedge cycles (device-timeout faults), accounted
    separately from {!display_producer_wait}. *)
val display_fault_stall_cycles : display -> int

val display_lock : display -> Spinlock.t

(** {2 The input event queue} *)

type input_queue

(** [make_input_queue ~lock] builds an empty queue behind [lock], as
    {!make_display} does. *)
val make_input_queue : lock:Spinlock.t -> input_queue

(** Schedule an event to become visible at [time]. *)
val inject : input_queue -> time:int -> payload:int -> unit

(** Poll under the queue's lock at [now] and return the completion time.
    A poll that finds no visible event allocates nothing.  [vp] is the
    polling processor; engine-side callers pass -1. *)
val poll : vp:int -> input_queue -> now:int -> op_cycles:int -> int

(** The payload of the event the last {!poll} delivered, if it
    delivered one. *)
val polled : input_queue -> int option

(** Whether some injected event is not yet delivered. *)
val input_pending : input_queue -> bool

(** When the earliest still-queued event becomes visible, if any — the
    calendar engine's park deadline for idle processors. *)
val next_input_time : input_queue -> int option

val input_polls : input_queue -> int

val input_delivered : input_queue -> int

val input_lock : input_queue -> Spinlock.t
