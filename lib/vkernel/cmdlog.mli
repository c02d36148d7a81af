(** The replicated image cluster's shared command log (E19).

    An append-only, totally-ordered log of image-server requests, each
    keyed by its issuing session and the state shard it touches.  Two
    entries conflict when they share either key; everything else
    commutes.  {!schedule} turns the log into conflict-free waves — the
    dependency-aware dispatch of *Early Scheduling in Parallel State
    Machine Replication* — which every replica computes identically, so
    wave boundaries are the cluster's common grid for fingerprints,
    checkpoints and crash delivery. *)

type entry = {
  lsn : int;  (** log sequence number, dense from 0 *)
  session : int;
  shard : int;
  kind : int;  (** which request handler runs *)
}

type t

val to_list : t -> entry list

(** Same session or same shard. *)
val conflicts : entry -> entry -> bool

(** Partition entries (in log order) into waves of pairwise-independent
    entries, at most [slots] per wave; every entry lands strictly after
    the wave of each earlier conflicting entry, in the earliest such
    wave with room. *)
val schedule : ?slots:int -> entry list -> entry list list

(** A deterministic synthetic request workload from a seed. *)
val generate : seed:int -> requests:int -> sessions:int -> shards:int -> t

(** Write/read the durable representation: a {!Plan} file headed
    ["# mst command log v1"] whose steps are
    [cmd LSN SESSION SHARD KIND] lines.  [load] raises {!Plan.Corrupt}
    on any file {!Plan.load} refuses and on lsns that are not dense
    from 0; {!load_nonempty} additionally refuses a log with zero
    entries (a cluster run over it would succeed vacuously). *)
val save : string -> t -> unit

val load : string -> t

val load_nonempty : string -> t
