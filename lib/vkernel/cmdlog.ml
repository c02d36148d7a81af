(* The replicated cluster's shared command log (E19).

   State-machine replication needs three things from its log: the same
   totally-ordered entries on every replica (the file format below), a
   conflict relation so independent commands can run in parallel without
   changing the outcome, and a durable representation that a rejoining
   replica can re-read after a crash.

   Each entry is one E17-style image-server request, keyed by the session
   that issued it and the state shard it touches.  Two entries conflict
   when they share either key: same shard means they mutate the same
   object graph, same session means the session's own ordering must hold.
   Everything else commutes, which is exactly the independence the
   early-scheduling dispatcher exploits (*Early Scheduling in Parallel
   State Machine Replication*; shard keying per *Rethinking State-Machine
   Replication for Parallelism*).

   [schedule] turns the log into a list of waves: each wave holds
   pairwise-independent entries (bounded by the replica's worker slots),
   and an entry lands in a wave strictly after the wave of every earlier
   conflicting entry, so conflicting commands execute in log order while
   independent ones are delivered to different worker Processes at the
   same virtual instant.  The wave structure is a pure function of the
   log, so every replica (and the sequential reference run) agrees on
   the boundaries where fingerprints are taken, checkpoints are written
   and crashes are delivered. *)

type entry = {
  lsn : int;      (* log sequence number, dense from 0 *)
  session : int;
  shard : int;
  kind : int;     (* which request handler runs *)
}

type t = entry list

let to_list t = t

(* --- the conflict relation and the wave dispatcher --- *)

let conflicts a b = a.session = b.session || a.shard = b.shard

(* Partition [entries] (in log order) into waves of pairwise-independent
   entries, at most [slots] per wave.  An entry is placed in the first
   wave after every earlier conflicting entry's wave that still has room;
   since all of an entry's conflicts sit in strictly earlier waves, any
   wave at or past that point is conflict-free for it by construction.
   For the same reason the latest wave of each session and of each shard
   is all an entry's floor depends on. *)
let schedule ?(slots = max_int) entries =
  if slots < 1 then invalid_arg "Cmdlog.schedule: slots must be >= 1";
  (* There are never more waves than entries; an unused wave is empty,
     so the search for room ends at the first of them. *)
  let n = List.length entries in
  let waves = Array.make n [] in       (* wave index -> entries, reversed *)
  let sizes = Array.make n 0 in
  let nwaves = ref 0 in
  let by_session = Hashtbl.create 16 and by_shard = Hashtbl.create 16 in
  let after latest key =
    match Hashtbl.find_opt latest key with Some w -> w + 1 | None -> 0
  in
  List.iter
    (fun e ->
      let w =
        ref (Int.max (after by_session e.session) (after by_shard e.shard))
      in
      while sizes.(!w) >= slots do incr w done;
      waves.(!w) <- e :: waves.(!w);
      sizes.(!w) <- sizes.(!w) + 1;
      nwaves := Int.max !nwaves (!w + 1);
      Hashtbl.replace by_session e.session !w;
      Hashtbl.replace by_shard e.shard !w)
    entries;
  List.init !nwaves (fun i -> List.rev waves.(i))

(* --- generation --- *)

(* A deterministic synthetic workload: [requests] entries whose keys walk
   the session/shard spaces through the shared splitmix generator, so a
   seed names the whole log.  The draws run kind, shard, session: the
   order every published log was generated in. *)
let generate ~seed ~requests ~sessions ~shards =
  if requests < 1 then invalid_arg "Cmdlog.generate: requests must be >= 1";
  if sessions < 1 || shards < 1 then
    invalid_arg "Cmdlog.generate: sessions and shards must be >= 1";
  let rng = Plan.Rng.make seed in
  List.init requests (fun lsn ->
      let kind = Plan.Rng.below rng 4 in
      let shard = Plan.Rng.below rng shards in
      let session = Plan.Rng.below rng sessions in
      { lsn; session; shard; kind })

(* --- the durable representation ---

   A {!Plan} file whose steps are [cmd <lsn> <session> <shard> <kind>]
   lines: the index is the lsn, so the header, the ascending indices and
   the [end <count>] trailer detect a wrong version, a dropped or
   duplicated line and a truncated tail. *)

let format =
  { Plan.header = "mst command log v1";
    noun = "command";
    encode = (fun e -> ("cmd", [ e.session; e.shard; e.kind ]));
    decode =
      (fun token args ->
        (* the lsn is the step's index, which {!of_plan} fills in *)
        match (token, args) with
        | "cmd", [ session; shard; kind ] ->
            Some { lsn = 0; session; shard; kind }
        | _ -> None) }

let save path t =
  Plan.save format path
    (List.map (fun e -> { Plan.index = e.lsn; action = e }) t)

(* {!Plan.load} checks that the lsns ascend; replicas name requests by
   lsn, so they must also be dense from 0. *)
let of_plan path plan =
  List.mapi
    (fun i { Plan.index; action } ->
      if index <> i then
        raise
          (Plan.Corrupt
             { path; what = Printf.sprintf "lsn %d where %d belongs" index i });
      { action with lsn = index })
    plan

let load path = of_plan path (Plan.load format path)

(* [load] for a replay/serve invocation: a log with no entries would
   "serve" nothing and report success, so it is refused. *)
let load_nonempty path = of_plan path (Plan.load_replay format path)
