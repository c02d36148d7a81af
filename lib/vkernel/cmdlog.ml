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

type t = { mutable entries : entry array; mutable len : int }

(* A log file (or in-flight buffer) that cannot be used: empty,
   truncated, wrong version, or unparseable.  Structured so the CLI can
   report it and exit 2 — never a vacuous success. *)
exception Corrupt of { path : string; what : string }

let corrupt path fmt =
  Printf.ksprintf (fun what -> raise (Corrupt { path; what })) fmt

let () =
  Printexc.register_printer (function
    | Corrupt { path; what } ->
        Some (Printf.sprintf "corrupt command log %s: %s" path what)
    | _ -> None)

let create () = { entries = [||]; len = 0 }

let append t ~session ~shard ~kind =
  if session < 0 || shard < 0 || kind < 0 then
    invalid_arg "Cmdlog.append: negative key";
  let e = { lsn = t.len; session; shard; kind } in
  if t.len >= Array.length t.entries then begin
    let cap = Int.max 16 (2 * Array.length t.entries) in
    let a = Array.make cap e in
    Array.blit t.entries 0 a 0 t.len;
    t.entries <- a
  end;
  t.entries.(t.len) <- e;
  t.len <- t.len + 1;
  e

let to_list t = Array.to_list (Array.sub t.entries 0 t.len)

let iter t f =
  for i = 0 to t.len - 1 do
    f t.entries.(i)
  done

(* --- the conflict relation and the wave dispatcher --- *)

let conflicts a b = a.session = b.session || a.shard = b.shard

(* Partition [entries] (in log order) into waves of pairwise-independent
   entries, at most [slots] per wave.  An entry is placed in the first
   wave after every earlier conflicting entry's wave that still has room;
   since all of an entry's conflicts sit in strictly earlier waves, any
   wave at or past that point is conflict-free for it by construction. *)
let schedule ?(slots = max_int) entries =
  if slots < 1 then invalid_arg "Cmdlog.schedule: slots must be >= 1";
  let waves = ref [||] in       (* wave index -> entries, reversed *)
  let sizes = ref [||] in
  let nwaves = ref 0 in
  let wave_of = Hashtbl.create 64 in   (* lsn -> wave index *)
  let push_wave () =
    if !nwaves >= Array.length !waves then begin
      let cap = max 8 (2 * Array.length !waves) in
      let w = Array.make cap [] and s = Array.make cap 0 in
      Array.blit !waves 0 w 0 !nwaves;
      Array.blit !sizes 0 s 0 !nwaves;
      waves := w;
      sizes := s
    end;
    incr nwaves
  in
  let earlier = ref [] in       (* already-placed entries, newest first *)
  List.iter
    (fun e ->
      let floor =
        List.fold_left
          (fun acc f ->
            if conflicts e f then max acc (1 + Hashtbl.find wave_of f.lsn)
            else acc)
          0 !earlier
      in
      let w = ref floor in
      while !w < !nwaves && !sizes.(!w) >= slots do incr w done;
      while !w >= !nwaves do push_wave () done;
      !waves.(!w) <- e :: !waves.(!w);
      !sizes.(!w) <- !sizes.(!w) + 1;
      Hashtbl.replace wave_of e.lsn !w;
      earlier := e :: !earlier)
    entries;
  List.init !nwaves (fun i -> List.rev !waves.(i))

(* --- generation --- *)

(* A deterministic synthetic workload: [requests] entries whose keys walk
   the session/shard spaces through the shared splitmix generator, so a
   seed names the whole log. *)
let generate ~seed ~requests ~sessions ~shards =
  if requests < 1 then invalid_arg "Cmdlog.generate: requests must be >= 1";
  if sessions < 1 || shards < 1 then
    invalid_arg "Cmdlog.generate: sessions and shards must be >= 1";
  let rng = Plan.Rng.make seed in
  let t = create () in
  for _ = 1 to requests do
    ignore
      (append t
         ~session:(Plan.Rng.below rng sessions)
         ~shard:(Plan.Rng.below rng shards)
         ~kind:(Plan.Rng.below rng 4))
  done;
  t

(* --- the durable representation ---

   Line-oriented:

     # mst command log v1
     cmd <lsn> <session> <shard> <kind>
     ...
     end <count>

   The header line is literal (a missing or different first line is a
   version/corruption error, which covers the empty file), every entry
   names its own lsn so a dropped line is detected, and the trailer
   carries the count so a truncated tail is detected.  All rejections
   raise the structured {!Corrupt}. *)

let header = "# mst command log v1"

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (header ^ "\n");
      iter t (fun e ->
          output_string oc
            (Printf.sprintf "cmd %d %d %d %d\n" e.lsn e.session e.shard e.kind));
      output_string oc (Printf.sprintf "end %d\n" t.len))

let load path =
  let ic =
    try open_in path
    with Sys_error msg -> corrupt path "cannot open: %s" msg
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let first =
        try input_line ic
        with End_of_file -> corrupt path "empty file (missing header)"
      in
      if String.trim first <> header then
        corrupt path "missing or unsupported header %S (want %S)"
          (String.trim first) header;
      let t = create () in
      let ended = ref false in
      let lineno = ref 1 in
      (try
         while not !ended do
           let line = String.trim (input_line ic) in
           incr lineno;
           if line <> "" && line.[0] <> '#' then begin
             let bad () = corrupt path "line %d: malformed entry %S" !lineno line in
             let nat s =
               match int_of_string_opt s with
               | Some n when n >= 0 -> n
               | _ -> bad ()
             in
             match String.split_on_char ' ' line with
             | [ "cmd"; lsn; session; shard; kind ] ->
                 let lsn = nat lsn in
                 if lsn <> t.len then
                   corrupt path "line %d: lsn %d out of order (expected %d)"
                     !lineno lsn t.len;
                 ignore
                   (append t ~session:(nat session) ~shard:(nat shard)
                      ~kind:(nat kind))
             | [ "end"; count ] ->
                 if nat count <> t.len then
                   corrupt path "trailer count %d does not match %d entries"
                     (nat count) t.len;
                 ended := true
             | _ -> bad ()
           end
         done
       with End_of_file -> ());
      if not !ended then
        corrupt path "truncated log: missing 'end %d' trailer" t.len;
      t)

(* [load] for a replay/serve invocation: a log with no entries would
   "serve" nothing and report success — the PR 6 vacuous-success rule
   rejects it instead. *)
let load_nonempty path =
  let t = load path in
  if t.len = 0 then corrupt path "no entries (empty log)";
  t
