(** Generation Scavenging (Ungar '84), as used by Berkeley Smalltalk.

    A stop-and-copy collection of new space only: live new objects are
    copied from eden and the past survivor space into the future survivor
    space (Cheney's algorithm); objects that have survived [tenure_age]
    scavenges, or that overflow the survivor space, are promoted into old
    space, possibly into a hole the incremental mark-sweep ({!Major})
    swept.  The entry table supplies the old-to-new roots.  Context frames
    are scanned only up to their stack pointers.

    {!scavenge} and {!scavenge_parallel} share one pass start, object
    move, forwarding, field update and flip; they differ only in where a
    copy goes and in the order grey objects are scanned.

    The caller is responsible for the multiprocessor rendezvous: every
    interpreter must be parked before a collection runs, and the
    [on_scavenge] hooks flush the method caches and free-context lists. *)

(** Fields of the object at the given address that must be scanned
    (0 for raw objects; bounded by the stack pointer for contexts). *)
val scan_limit : Heap.t -> int -> int

(** Run one scavenge; returns its statistics.
    @raise Heap.Image_full when promotion exhausts old space. *)
val scavenge : Heap.t -> Heap.scavenge_stats

(** Cycle cost of a scavenge under the cost model; the engine charges it
    to every parked processor (the collection is stop-the-world). *)
val cost : Cost_model.t -> Heap.scavenge_stats -> int

(** {2 Simulated parallel scavenging (E10)} *)

(** Per-worker outcome of a simulated parallel scavenge.  Cycle fields are
    the worker's own timeline under the cost model: [copy_cycles] for
    copying, [scan_cycles] for entry-table rescans, [coord_cycles] for
    claims, chunk claims and steals; [busy_cycles] is their sum and
    [idle_cycles] the gap to the slowest worker. *)
type worker_stat = {
  worker : int;
  mutable copied_objects : int;
  mutable copied_words : int;
  mutable entries_scanned : int;
  mutable chunks_claimed : int;
  mutable steals : int;
  mutable copy_cycles : int;
  mutable scan_cycles : int;
  mutable coord_cycles : int;
  mutable busy_cycles : int;
  mutable idle_cycles : int;
}

type parallel_result = {
  workers : int;
  rounds : int;  (** grey-scanning rounds after the root/entry phase *)
  pause_cycles : int;
      (** the stop-the-world pause: scavenge base + the slowest worker's
          busy timeline + the per-round barrier costs *)
  barrier_cycles : int;
  coordination_cycles : int;
      (** claims + chunk claims + steals across all workers + barriers *)
  worker_stats : worker_stat array;
  degraded : bool;
      (** an injected worker crash forced the survivors to finish the
          collection (degraded mode); the caller must run {!Verify.check} *)
  failed_workers : int list;  (** ids of crashed workers, in death order *)
}

(** Run one scavenge simulated across [workers] virtual workers: roots and
    the entry-table snapshot are sharded deterministically; each worker
    copies into private allocation buffers chunk-claimed from the shared
    to-space/old-space regions (abandoned buffer tails are sealed with
    filler pseudo-objects so the regions still tile); the forwarding slot
    is the claim — exactly one worker copies each object; grey objects are
    scanned in rounds with work stealing at the round boundaries until a
    round finds every queue empty.  The heap ends in the same abstract
    state as {!scavenge} (same reachable objects, possibly different
    placement); speedup, imbalance and coordination overhead emerge from
    the per-worker timelines rather than a closed-form divide.

    With [injector], each round barrier is a {!Fault.Gc_barrier} injection
    point: a [Worker_crash] kills one surviving worker (never the last),
    whose allocation buffers are sealed and whose grey backlog is funnelled
    to a survivor; the collection then completes in degraded mode and the
    result is flagged [degraded] so the caller can verify the heap.
    @raise Heap.Image_full when promotion exhausts old space. *)
val scavenge_parallel :
  Heap.t ->
  Cost_model.t ->
  ?injector:Fault.t ->
  workers:int ->
  unit ->
  Heap.scavenge_stats * parallel_result
