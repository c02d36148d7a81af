(** The bytecode interpreter: a steppable machine executing exactly one
    bytecode per {!step}.  The engine drives one interpreter per virtual
    processor, interleaving them in virtual-time order.

    Each step loads a Process if idle, performs the periodic duties of
    the original interpreter (polling the shared input queue and checking
    the scheduler — both lock-guarded, both sources of multiprocessor
    overhead), checks the eden low-water mark, then fetches, decodes and
    executes one bytecode, accumulating its cycle cost for the engine. *)

type step_result =
  | Ran  (** one bytecode executed; [st.cost] holds its cycles *)
  | Idle  (** no Process to run *)
  | Need_gc  (** eden low or allocation failed; park and scavenge *)

(** A conditional jump consumed a non-Boolean. *)
exception Must_be_boolean

(** A message had no receiver implementation and no [doesNotUnderstand:]
    handler (or an internal arity error). *)
exception Does_not_understand of string

(** The interned special selectors of the arithmetic fast path. *)
type specials

(** An interpreter: its processor's state, and the VM's specials.  A
    record the engine can index arrays of without a float-array test. *)
type t = private { st : State.t; specials : specials }

val create : State.t -> t

(** An idle interpreter still watches for input events; the engine calls
    this between ready-queue polls. *)
val idle_poll : t -> unit

(** Execute one step.  Resets and accumulates [State.cost]; the engine
    charges it (bus-adjusted) to the processor's clock. *)
val step : t -> step_result
