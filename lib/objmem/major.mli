(** Incremental old-space mark-sweep (E18).

    Generation Scavenging never collects old space; this collector
    reclaims tenured garbage in bounded work slices run at interpreter
    step boundaries.  Tricolor marking keeps its mark state in a side
    bitmap (every header flag bit is taken); a Dijkstra-style
    incremental-update write barrier — {!dirty}, installed as
    [Heap.major_dirty] — shades every pointer the mutator stores;
    objects entering old space mid-cycle are allocated black; the sweep
    threads reclaimed holes onto the heap's size-segregated free lists,
    consulted by [Heap.alloc_old] before bumping. *)

type phase = Idle | Marking | Sweeping

type t

(** [iter_roots f] must call [f] on every root oop beyond the heap's own
    registered roots: universe tables, free-context list heads, scheduler
    deques.  It is invoked at mark start and again at the termination
    check. *)
val create :
  heap:Heap.t -> budget:int -> iter_roots:((Oop.t -> unit) -> unit) -> t

val phase : t -> phase

(** Call [f] on every root the collector marks from: the heap's
    registered root cells and root arrays, then [create]'s
    [iter_roots]. *)
val iter_roots : t -> (Oop.t -> unit) -> unit

(** A cycle is in flight. *)
val active : t -> bool

val budget : t -> int

(** The word at old-space address [a] starts a marked object. *)
val marked : t -> int -> bool

(** The write barrier: shade a stored value while marking. *)
val dirty : t -> Oop.t -> unit

(** Allocate-black hook for objects entering old space mid-cycle. *)
val alloc_black : t -> int -> unit

(** The trigger: idle, and occupancy or tenured growth warrants a
    cycle. *)
val want_start : t -> bool

(** Old space is over 90% occupied. *)
val near_exhaustion : t -> bool

(** A slice should run now: pacing allows it, and either a cycle is in
    flight or the trigger fires. *)
val due : t -> now:int -> bool

type slice_result = {
  cost : int;  (** cycles of collector work done in this slice *)
  mark_completed : bool;
      (** marking finished this slice; marks are final and nothing has
          been swept yet — the window for {!Verify.check_marked} *)
  cycle_completed : bool;  (** sweeping finished; the collector is idle *)
}

(** Run one budgeted slice (starting a cycle if idle) and update the
    pacing clock. *)
val slice : t -> Cost_model.t -> now:int -> slice_result

(** Run the collector to completion — the in-flight cycle, or a whole
    fresh one when idle — and return the total cost.  The last resort
    before [Image_full]. *)
val finish_cycle : t -> Cost_model.t -> int

(** {2 Statistics} *)

val cycles_completed : t -> int
val slices : t -> int
val slice_cycles_total : t -> int
val max_slice : t -> int

(** Slices whose cost exceeded the budget.  Work units are admitted with
    look-ahead — a unit that would not fit ends the slice — so an overrun
    only comes from an atomic root scan or a slice's first unit being
    bigger than the whole budget. *)
val overruns : t -> int

(** Every slice's cost, oldest first. *)
val slice_costs : t -> int list

val reclaimed_objects : t -> int
val reclaimed_words : t -> int
val forced_completions : t -> int
val barrier_greys : t -> int
val alloc_marks : t -> int
