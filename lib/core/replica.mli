(** The replicated image cluster (E19).

    R simulated machines — each a full {!Vm} — execute the same durable
    command log of image-server requests ({!Cmdlog}).  The log's conflict
    relation partitions it into waves of pairwise-independent entries;
    within a wave each replica's worker Processes serve the requests on
    different virtual processors, while conflicting entries stay in log
    order because they land in different waves.  Wave boundaries are the
    cluster's quiescent points: fingerprints, checkpoints and injected
    replica crashes ({!Fault.Replica_crash} at {!Fault.Log_entry}) all
    happen there, so a crash always leaves a clean prefix of applied
    entries.

    A crashed replica rejoins by restoring the newest usable checkpoint
    ({!Snapshot}) into a skeleton VM freshly booted from the kernel image
    and replaying the log suffix; corrupt checkpoints are rejected by the loader and
    the rejoin falls back to the previous one.  The divergence detector
    compares every replica's per-boundary fingerprint — a census of the
    application state under stable roots, mixed with an order-sensitive
    shard digest — against a non-replicated reference run and against the
    other replicas. *)

exception Cluster_error of string

(** {2 Building blocks} *)

(** A bootstrapped cluster machine: VM, rooted pool-semaphore cell, and
    its served-request count. *)
type node = {
  vm : Vm.t;
  pool : Oop.t ref;
  mutable completed : int;
}

(** Bootstrap a fresh machine: kernel image, cluster classes, shard
    array, [slots] worker Processes parked on the pool semaphore. *)
val build_node : slots:int -> shards:int -> node

(** Deliver one wave of pairwise-independent entries and run the machine
    back to quiescence.  [skip] drops entries (the deliberately-divergent
    configuration). *)
val apply_wave : ?skip:(Cmdlog.entry -> bool) -> node -> Cmdlog.entry list -> unit

(** The replica fingerprint: census shape under {!Explorer.stable_roots}
    / {!Explorer.schedule_dependent} / {!Explorer.stable_class_key},
    mixed with the order-sensitive shard value digest.  Comparable across
    independently-bootstrapped images. *)
val fingerprint_of : Vm.t -> int

val capture_registers : Vm.t -> Snapshot.registers

(** Install checkpointed host-side registers and flush every cache that
    points into the replaced memory (method caches, free contexts,
    decoded contexts) — the processor-crash discipline. *)
val restore_registers : Vm.t -> Snapshot.registers -> unit

(** {2 The cluster} *)

type scenario =
  | Torn_checkpoint  (** the crash tears the victim's newest checkpoint *)
  | Crash_mid_replay  (** the victim dies again halfway through replay *)
  | Double_crash  (** the second fault targets the same replica again *)

(** Every scenario by its [mst cluster --scenario] name. *)
val scenarios : (string * scenario) list

type params = {
  replicas : int;
  requests : int;
  sessions : int;  (** <= 16 *)
  shards : int;  (** <= 16 *)
  slots : int;  (** worker Processes per replica = max wave width *)
  checkpoint_every : int;  (** log entries between checkpoints *)
  log_seed : int;
  crash_seed : int option;  (** arms the Replica_crash injector *)
  skip_lsn : int option;
      (** deliberately-divergent config: replica 0 drops this entry *)
  scenario : scenario option;
  dir : string option;
      (** checkpoint/log directory; when absent, {!run} creates a
          temporary one and removes it on return or exception *)
}

val default_params : params

type outcome = {
  entries : int;
  waves : int;
  replicas : int;
  crashes : int;
  rejoins : int;
  fallbacks : int;  (** checkpoints rejected as unusable during rejoins *)
  served : int;  (** wave entries executed by live replicas *)
  missed : int;  (** entries applied while some replica was down *)
  max_rejoin_lag : int;  (** largest log suffix a rejoin replayed *)
  availability_permil : int;  (** served / (entries * replicas) *)
  divergences : string list;
  final_fingerprint : int;  (** the reference run's *)
  converged : bool;  (** every replica's final fingerprint matches it *)
  fault_plan : Fault.plan;
  log_path : string;
  dir : string;
      (** the checkpoint and log directory: the caller's [dir], kept; or
          a temporary one, already removed when {!run} returns *)
}

(** Run the cluster over a freshly generated (and durably round-tripped)
    command log.  [log] receives progress lines. *)
val run : ?log:(string -> unit) -> params -> outcome

val pp : Format.formatter -> outcome -> unit
