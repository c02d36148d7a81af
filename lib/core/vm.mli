(** Assembling and driving Multiprocessor Smalltalk on the simulated
    Firefly.

    [create] builds a complete virtual machine — object memory booted
    from the kernel image, universe, interpreters, caches, devices —
    wired according to the strategy configuration.  [run] is the simulation
    engine: it always steps the runnable virtual processor with the
    smallest clock, fires due Delay timers, and performs the stop-the-world
    scavenge rendezvous in which every parked processor pays the pause.

    The whole simulation is single-threaded and deterministic: identical
    inputs give identical cycle counts. *)

type t = {
  config : Config.t;
  machine : Machine.t;
  heap : Heap.t;
  u : Universe.t;
  shared : State.shared;
  states : State.t array;  (** one interpreter state per processor *)
  interps : Interp.t array;
  locks : Spinlock.t list;
      (** every kernel spinlock, enabled or not, for instrumentation *)
  mutable gc_requested : bool;
  mutable scavenge_pauses : int;
  mutable scavenge_cycles : int;  (** total stop-the-world cycles *)
  mutable par_scavenges : int;
      (** collections run by the simulated parallel scavenger
          ([scavenge_workers > 1]) *)
  mutable par_rounds : int;  (** total grey-scanning rounds *)
  mutable par_coord_cycles : int;
      (** claims + chunk claims + steals + barriers, summed *)
  par_copied_objects : int array;  (** per worker id, length [processors] *)
  par_copied_words : int array;
  par_busy_cycles : int array;
  par_idle_cycles : int array;
  mutable crashes_delivered : int;
      (** processors halted by injected crashes (fault campaigns only) *)
  mutable degraded_scavenges : int;
      (** parallel collections a worker crash forced the survivors to
          finish; each one is heap-verified unconditionally *)
  mutable engine_events : int;
      (** events the run loop processed (selections + batched steps) *)
  mutable parks : int;
      (** idle re-steps the calendar engine parked away instead of
          running (always 0 under {!Config.Engine_scan}) *)
  major : Major.t option;
      (** the incremental old-space collector (E18), when
          [Config.major_enabled] *)
  mutable major_forced_allocs : int;
      (** old-space allocations that survived only because exhaustion
          forced a cycle to completion — each one was an [Image_full] at
          the seed sizing *)
  mutable scavenge_pause_costs : int list;
      (** every stop-the-world scavenge pause, newest first (for the
          pause-distribution percentiles) *)
}

exception Error of string

(** The VM's serialization sanitizer (armed only while {!run} executes). *)
val sanitizer : t -> Sanitizer.t

(** Build a VM whose heap is booted from the process's kernel image
    ({!Bootstrap.install}): the first VM of a process compiles the kernel,
    every later one copies it. *)
val create : Config.t -> t

(** Install additional classes (image-definition format) after bootstrap:
    workload classes for benchmarks, user code for examples.  Flushes the
    method caches. *)
val load_classes : t -> string -> unit

(** Compile [source] as a doIt and schedule a new Process for it at
    [priority] (default 5, the user scheduling priority).  The Process
    starts running at the next {!run}. *)
val spawn : t -> ?priority:int -> ?name:string -> string -> Oop.t

type run_outcome =
  | Finished of Oop.t  (** the watched Process returned this value *)
  | Deadlock  (** no Process, event or timer can make progress *)
  | Cycle_limit

(** Drive the machine until the watched Process terminates, the system
    quiesces, or [max_cycles] of virtual time elapse.  Background
    Processes keep running while the watched one is alive.  A VM-level
    error (doesNotUnderstand, mustBeBoolean, Smalltalk [error:]) removes
    the erring Process from the machine and re-raises, leaving the VM
    usable. *)
val run : ?max_cycles:int -> ?watch:Oop.t -> t -> run_outcome

(** [eval vm source] spawns, runs and returns the doIt's value.  The
    returned oop is valid until the next scavenge (i.e. the next run).
    @raise Error on deadlock or cycle-limit. *)
val eval : ?priority:int -> t -> string -> Oop.t

(** A short printable description of an oop (integers, strings, symbols,
    characters, booleans, class names, or ["a ClassName"]). *)
val describe : t -> Oop.t -> string

val eval_to_string : ?priority:int -> t -> string -> string

(** Everything written to this VM's Transcript since [create]; each VM
    has its own, so creating another VM leaves it alone. *)
val transcript : t -> string

(** Virtual time: the maximum processor clock, in cycles / in simulated
    seconds. *)
val cycles : t -> int

val seconds : t -> float

(** {2 Fault injection}

    With an injector installed, {!run} becomes a fault campaign: the
    interpreters may crash or stall at scheduling checks, lock holders
    may stall or die inside critical sections, the display controller
    may time out, and parallel scavenge workers may die at round
    barriers.  Recovery — failover of the dead processor's Process,
    abandonment of its replicated state, degraded-mode collection — is
    exercised by the same run.  Without an injector every injection
    site is a no-op and the simulation is bit-identical to the seed. *)

(** Install (or clear) the fault injector on this VM's machine. *)
val set_fault_injector : t -> Fault.t option -> unit
