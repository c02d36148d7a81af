(* E19: the replicated image cluster.

   The engine is deterministic — a fault-free run is bit-identical given
   the same inputs — which is exactly the property state-machine
   replication needs.  A cluster is R simulated machines (each a full
   {!Vm} with its own heap, scheduler and interpreters) executing the
   same durable command log of image-server requests ({!Cmdlog}).  The
   log's conflict relation (same session or same shard) partitions it
   into waves of pairwise-independent entries; within a wave the
   dispatcher delivers every entry at the same virtual instant and lets
   each replica's worker Processes serve them on different virtual
   processors — the early-scheduling form of parallel SMR — while
   conflicting entries stay in log order because they sit in different
   waves.  Wave boundaries are where the cluster is quiescent (every
   worker parked back on the pool semaphore, calendar drained), so they
   are the only places where fingerprints are taken, checkpoints are
   written and replica crashes are delivered: what a crash leaves behind
   is always a prefix of applied entries, never a half-applied command.

   Correctness is enforced, not assumed.  The replica fingerprint
   combines two views of the application state reachable from the image
   globals: the census shape (objects per class under {!Explorer}'s
   stable roots, stop predicate and name-keyed classes — each applied
   request links one more Point into its shard's chain, so a dropped
   entry is a visible shape change) and an order-sensitive value digest
   (each shard accumulates [(total * 31 + rid) \\ 1000003], so two
   conflicting entries applied out of order are a visible value change).
   A non-replicated reference run applies the log one entry at a time
   and records the fingerprint at every wave boundary, the only entry
   counts a replica is ever compared at; the divergence detector
   compares every replica against the reference — and replicas against
   each other — at every boundary.  Each replica state is fingerprinted
   once: a checkpoint, and the final convergence check, reuse the
   fingerprint the boundary check took at the same entry count.  Nearly
   every object a fingerprint counts lies in the kernel image, which no
   request writes, so each node freezes a census part over its image
   range at its first fingerprint after a build or a restore
   ({!Verify.freeze}); later censuses check the image words that walk
   read and walk only what lies past them, falling back to the full walk
   if any of those words changed.  The fingerprints are the full walk's
   either way.  A run hands every heap it is done with back to {!Heap}'s
   pool (the reference node's after its last fingerprint, a rejected
   skeleton's, the node a rejoin replaces, and every replica's at the
   end), so the next node built reuses zeroed memory instead of a fresh
   array.

   A replica killed by the fault injector ({!Fault.Replica_crash},
   sampled at {!Fault.Log_entry} boundary queries) rejoins by restoring
   the newest usable checkpoint ({!Snapshot}) into a skeleton VM freshly
   booted from the kernel image and replaying the log suffix; corrupt or
   truncated checkpoints are rejected by the loader and the rejoin falls
   back to the previous one, ultimately the entries=0 checkpoint every
   replica writes at start.  A checkpoint stores only the words that
   differ from the kernel image.  Restore must reproduce the
   checkpoint's own header fingerprint and replay must walk through the
   replica's recorded pre-crash fingerprints — both are checked, not
   trusted. *)

exception Cluster_error of string

let cluster_error fmt =
  Printf.ksprintf (fun m -> raise (Cluster_error m)) fmt

let () =
  Printexc.register_printer (function
    | Cluster_error m -> Some (Printf.sprintf "cluster error: %s" m)
    | _ -> None)

(* --- the replica workload ---

   Core-local application classes (no Transcript, no Display: each VM
   has its own, but their output lives in host-side buffers outside the
   heap, which a checkpoint does not carry and a fingerprint does not
   see).  Each shard keeps an order-sensitive integer accumulator and a
   chain of Points threaded through [y]; both are reachable from the
   ClusterShards global, so the census and the digest see exactly the
   applied-request history. *)

let cluster_classes =
  {st|
CLASS ClusterShard SUPER Object IVARS total chain
METHODS ClusterShard
setUp
    total := 0.
    chain := nil
!
apply: code
    total := (total * 31 + code) \\ 1000003.
    chain := Point x: code y: chain.
    ^total
!
CLASS ClusterApp SUPER Object IVARS pad
METHODS ClusterApp
serveLoop
    | rid shard |
    [true] whileTrue: [
        ClusterPool wait.
        rid := Mirror nextRequest.
        rid >= 0 ifTrue: [
            shard := rid // 16 \\ 16.
            (ClusterShards at: shard + 1) apply: rid.
            Mirror requestDone: rid]]
!
|st}

let setup_source ~shards =
  Printf.sprintf
    "| i sh |\n\
     ClusterPool := Semaphore new.\n\
     ClusterShards := Array new: %d.\n\
     i := 1.\n\
     [i <= %d] whileTrue: [\n\
    \    sh := ClusterShard new.\n\
    \    sh setUp.\n\
    \    ClusterShards at: i put: sh.\n\
    \    i := i + 1].\n\
     0"
    shards shards

(* The request id packs the whole entry so the Smalltalk side can route
   by shard and accumulate an order-sensitive code: sessions, shards and
   kinds each fit in 4 bits, the lsn takes the rest. *)
let rid_of (e : Cmdlog.entry) =
  (e.Cmdlog.lsn * 4096) + (e.Cmdlog.session * 256) + (e.Cmdlog.shard * 16)
  + e.Cmdlog.kind

(* --- one simulated machine of the cluster --- *)

type node = {
  vm : Vm.t;
  pool : Oop.t ref;  (* rooted cell holding the ClusterPool semaphore *)
  mutable completed : int;  (* requests served over this VM's lifetime *)
  mutable image_part : Verify.frozen option;
      (* the kernel image's census part, frozen at the first fingerprint *)
}

let build_node ~slots ~shards =
  let vm = Vm.create (Config.ms ~processors:slots ()) in
  Vm.load_classes vm cluster_classes;
  ignore (Vm.eval vm (setup_source ~shards));
  for w = 1 to slots do
    ignore
      (Vm.spawn vm ~priority:5
         ~name:(Printf.sprintf "serve-%d" w)
         "ClusterApp new serveLoop")
  done;
  let sh = vm.Vm.shared in
  sh.State.request_mailbox <- Some (Mailbox.make ());
  let node =
    { vm; pool = ref Oop.sentinel; completed = 0; image_part = None }
  in
  sh.State.on_request_done <-
    (fun ~rid:_ ~now:_ -> node.completed <- node.completed + 1);
  (* run the fresh workers onto their pool wait: the quiescent baseline
     every wave starts from *)
  (match Vm.run vm with
   | Vm.Deadlock -> ()
   | Vm.Finished _ | Vm.Cycle_limit ->
       cluster_error "replica bootstrap did not quiesce");
  (match Universe.get_global vm.Vm.u "ClusterPool" with
   | Some sem -> node.pool := sem
   | None -> cluster_error "ClusterPool global missing after setup");
  Heap.add_root vm.Vm.heap node.pool;
  node

(* Deliver one wave: every entry's request rides the mailbox and one
   pool signal per request fires through the calendar, all at the same
   virtual instant; the run then executes the wave to quiescence.  The
   entries are pairwise-independent by construction, so which worker
   serves which request cannot change the outcome. *)
let apply_wave ?(skip = fun _ -> false) node wave =
  let vm = node.vm in
  let sh = vm.Vm.shared in
  let mbox =
    match sh.State.request_mailbox with
    | Some m -> m
    | None -> cluster_error "replica has no request mailbox"
  in
  let now = Machine.max_clock vm.Vm.machine + 1 in
  let sent = ref 0 in
  List.iter
    (fun e ->
      if not (skip e) then begin
        incr sent;
        Mailbox.send mbox ~now (rid_of e);
        let cell = ref !(node.pool) in
        Heap.add_root vm.Vm.heap cell;
        Calendar.add sh.State.timers ~key:now (State.Signal_sem cell)
      end)
    wave;
  let before = node.completed in
  (match Vm.run vm with
   | Vm.Deadlock -> ()
   | Vm.Finished _ | Vm.Cycle_limit ->
       cluster_error "replica did not quiesce after a wave");
  if node.completed - before <> !sent then
    cluster_error "wave lost requests: %d delivered, %d completed" !sent
      (node.completed - before)

(* --- fingerprints --- *)

(* The order-sensitive value digest: fold the shard accumulators in
   shard order.  Read host-side straight out of the heap — no eval, no
   allocation, no perturbation of the state being fingerprinted. *)
let digest vm =
  match Universe.get_global vm.Vm.u "ClusterShards" with
  | None -> cluster_error "ClusterShards global missing"
  | Some arr ->
      let h = vm.Vm.heap in
      let n = Heap.slots h (Oop.addr arr) in
      let d = ref Fnv.offset in
      for i = 0 to n - 1 do
        let shard = Heap.get h arr i in
        let total = Heap.get h shard 0 in
        let v = if Oop.is_small total then Oop.small_val total else -1 in
        d := Fnv.mix !d v
      done;
      !d

let fingerprint_with ?frozen vm ~stop ~roots =
  let census =
    Verify.census vm.Vm.heap ?frozen ~stop
      ~class_key:(Explorer.stable_class_key vm)
      ~roots
  in
  Fnv.mix (Verify.fingerprint census) (digest vm)

let fingerprint_of vm =
  fingerprint_with vm ~stop:(Explorer.schedule_dependent vm)
    ~roots:(Explorer.stable_roots vm)

(* A node's fingerprint reuses its own frozen part over the kernel
   image, taken at its first fingerprint after a build or a restore.
   Each node keeps its own: the stop predicate reads that node's heap. *)
let fingerprint node =
  let vm = node.vm in
  let stop = Explorer.schedule_dependent vm
  and roots = Explorer.stable_roots vm in
  let part =
    match node.image_part with
    | Some part -> part
    | None ->
        let h = vm.Vm.heap and image = Bootstrap.image_words () in
        let lo = h.Heap.old.Heap.base in
        let part =
          Verify.freeze ~stop ~image h ~lo ~hi:(lo + Array.length image) ~roots
        in
        node.image_part <- Some part;
        part
  in
  fingerprint_with ~frozen:part vm ~stop ~roots

(* --- host-side registers for checkpoints ---

   Everything a wave boundary leaves outside the heap: processor clocks,
   poll/resched deadlines, the active-context/process root cells, the
   scheduler's running slots and its round-robin wake cursor.  At a
   boundary most of these are at their parked values, but the clocks
   carry the replica's virtual time and the wake cursor steers future
   scheduling — restoring them keeps a rejoined replica on the same
   deterministic path as an uncrashed one. *)

let capture_registers vm =
  let m = vm.Vm.machine in
  let clocks =
    Array.init (Machine.processors m) (fun i ->
        (Machine.vp m i).Machine.clock)
  in
  let states = vm.Vm.states in
  let untils =
    Array.init
      (2 * Array.length states)
      (fun k ->
        let poll, sched = State.untils states.(k / 2) in
        if k mod 2 = 0 then poll else sched)
  in
  let actives =
    Array.init
      (2 * Array.length states)
      (fun k ->
        let st = states.(k / 2) in
        if k mod 2 = 0 then !(st.State.active_ctx)
        else !(st.State.active_process))
  in
  let sched = vm.Vm.shared.State.sched in
  [ ("clocks", clocks);
    ("untils", untils);
    ("actives", actives);
    ("running", Array.copy sched.Scheduler.running);
    ("sched", [| sched.Scheduler.next_home |]) ]

let restore_registers vm regs =
  let find key =
    match List.assoc_opt key regs with
    | Some a -> a
    | None -> cluster_error "checkpoint registers missing %S" key
  in
  let m = vm.Vm.machine in
  let clocks = find "clocks" in
  if Array.length clocks <> Machine.processors m then
    cluster_error "checkpoint processor count differs";
  Array.iteri (fun i c -> (Machine.vp m i).Machine.clock <- c) clocks;
  let states = vm.Vm.states in
  let untils = find "untils" and actives = find "actives" in
  if Array.length untils <> 2 * Array.length states
     || Array.length actives <> 2 * Array.length states
  then cluster_error "checkpoint interpreter count differs";
  Array.iteri
    (fun i st ->
      State.set_untils st ~poll:untils.(2 * i) ~sched:untils.((2 * i) + 1);
      State.enter_ctx st actives.(2 * i);
      st.State.active_process := actives.((2 * i) + 1))
    states;
  let sched = vm.Vm.shared.State.sched in
  let running = find "running" in
  if Array.length running <> Array.length sched.Scheduler.running then
    cluster_error "checkpoint scheduler width differs";
  Array.blit running 0 sched.Scheduler.running 0 (Array.length running);
  sched.Scheduler.next_home <- (find "sched").(0);
  (* host caches pointing into the replaced memory are stale: the same
     flush discipline an injected processor crash uses *)
  Array.iter
    (fun st ->
      Method_cache.flush st.State.mcache;
      Free_contexts.abandon st.State.free_ctxs;
      State.invalidate_cache st)
    states

(* --- checkpoints --- *)

let ensure_dir d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d && not (Sys.file_exists parent) then
      Sys.mkdir parent 0o755;
    Sys.mkdir d 0o755
  end

(* Tear the tail off a file: what a replica dying mid-checkpoint-write
   leaves behind (the torn-checkpoint fault scenario). *)
let truncate_file path =
  let content =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (String.sub content 0 (String.length content / 2)))

(* --- the cluster --- *)

type scenario = Torn_checkpoint | Crash_mid_replay | Double_crash

let scenarios =
  [ ("torn-checkpoint", Torn_checkpoint);
    ("crash-mid-replay", Crash_mid_replay);
    ("double-crash", Double_crash) ]

type params = {
  replicas : int;
  requests : int;
  sessions : int;  (* <= 16 *)
  shards : int;  (* <= 16 *)
  slots : int;  (* worker Processes per replica = max wave width *)
  checkpoint_every : int;  (* log entries between checkpoints *)
  log_seed : int;
  crash_seed : int option;  (* arms the Replica_crash injector *)
  skip_lsn : int option;
      (* deliberately-divergent config: replica 0 drops this entry *)
  scenario : scenario option;
  dir : string option;  (* checkpoint/log directory; temp when absent *)
}

(* Wave boundaries a crashed replica stays down before it rejoins. *)
let outage_waves = 2

let default_params =
  { replicas = 3; requests = 24; sessions = 4; shards = 4; slots = 3;
    checkpoint_every = 8; log_seed = 1; crash_seed = None;
    skip_lsn = None; scenario = None; dir = None }

type replica = {
  idx : int;
  mutable node : node;
  mutable applied : int;  (* log entries this replica has executed *)
  mutable alive : bool;
  mutable down_since : int;  (* wave index of the crash *)
  mutable rejoins : int;
  mutable fps : (int * int) list;
      (* (applied, fingerprint), newest first; the head is the current
         state's whenever its count is [applied] *)
  mutable ckpts : (int * string) list;  (* (entries, path), newest first *)
}

type outcome = {
  entries : int;
  waves : int;
  replicas : int;
  crashes : int;
  rejoins : int;
  fallbacks : int;  (* checkpoints rejected as unusable during rejoins *)
  served : int;  (* wave entries executed by live replicas *)
  missed : int;  (* entries the cluster applied while some replica was down *)
  max_rejoin_lag : int;  (* largest log suffix a rejoin replayed *)
  availability_permil : int;  (* served / (entries * replicas) *)
  divergences : string list;
  final_fingerprint : int;  (* the reference's *)
  converged : bool;  (* every replica's final fingerprint matches it *)
  fault_plan : Fault.plan;
  log_path : string;
  dir : string;
}

let validate (p : params) =
  if p.replicas < 1 then cluster_error "need at least one replica";
  if p.requests < 1 then cluster_error "need at least one request";
  if p.sessions < 1 || p.sessions > 16 then
    cluster_error "sessions must be in 1..16 (4-bit request encoding)";
  if p.shards < 1 || p.shards > 16 then
    cluster_error "shards must be in 1..16 (4-bit request encoding)";
  if p.slots < 1 then cluster_error "need at least one worker slot";
  if p.checkpoint_every < 1 then cluster_error "checkpoint-every must be >= 1"

(* The replica's current fingerprint: the one its last boundary check
   took, when that check was at the current entry count. *)
let current_fingerprint ~fingerprint r =
  match r.fps with
  | (applied, fp) :: _ when applied = r.applied -> fp
  | _ -> fingerprint r.node

let checkpoint ?(tag = "") ~fingerprint dir r =
  let vm = r.node.vm in
  if not (Calendar.is_empty vm.Vm.shared.State.timers) then
    cluster_error
      "replica %d: checkpoint with pending timers (engine hooks are not \
       serializable)"
      r.idx;
  let fp = current_fingerprint ~fingerprint r in
  let snap =
    Snapshot.capture vm.Vm.heap ~fingerprint:fp ~entries:r.applied
      ~registers:(capture_registers vm)
  in
  let path =
    Filename.concat dir (Printf.sprintf "r%d-%06d%s.snap" r.idx r.applied tag)
  in
  Snapshot.save path snap;
  r.ckpts <- (r.applied, path) :: r.ckpts

let run_in ~log ~observe (p : params) dir =
  let fingerprint node =
    let fp = fingerprint node in
    observe node fp;
    fp
  in
  let checkpoint = checkpoint ~fingerprint in
  (* the durable log: generate, save, and execute what was *re-read*, so
     every cluster run exercises the full durability round trip *)
  let log_path = Filename.concat dir "cmdlog" in
  Cmdlog.save log_path
    (Cmdlog.generate ~seed:p.log_seed ~requests:p.requests
       ~sessions:p.sessions ~shards:p.shards);
  let entries = Cmdlog.to_list (Cmdlog.load_nonempty log_path) in
  let total = List.length entries in
  let waves = Cmdlog.schedule ~slots:p.slots entries in
  let nwaves = List.length waves in
  let cums = Array.make (nwaves + 1) 0 in
  List.iteri
    (fun i w -> cums.(i + 1) <- cums.(i) + List.length w)
    waves;
  log
    (Printf.sprintf "log: %d entries in %d wave(s) (%d slot(s))" total nwaves
       p.slots);
  (* The dispatch order: waves flattened.  The scheduler may promote an
     independent entry past a conflict-blocked earlier one (early
     scheduling), so a wave boundary is a prefix of [flat], not of the
     log.  What dependency-aware dispatch must preserve is the *relative*
     order of conflicting entries — check that structurally before
     anything executes. *)
  let flat = List.concat waves in
  let () =
    let arr = Array.of_list flat in
    Array.iteri
      (fun i a ->
        for j = i + 1 to Array.length arr - 1 do
          let b = arr.(j) in
          if Cmdlog.conflicts a b && a.Cmdlog.lsn > b.Cmdlog.lsn then
            cluster_error
              "schedule reorders conflicting entries %d and %d" a.Cmdlog.lsn
              b.Cmdlog.lsn
        done)
      arr
  in
  (* the wave whose boundary lies after [entries] applied entries *)
  let boundary_at entries =
    let rec find i =
      if i > nwaves then None
      else if cums.(i) = entries then Some i
      else find (i + 1)
    in
    find 0
  in
  (* the non-replicated reference: the same dispatch order, one entry at
     a time on a single machine, fingerprinted at every wave boundary *)
  let ref_fps = Array.make (nwaves + 1) 0 in
  let () =
    let node = build_node ~slots:p.slots ~shards:p.shards in
    ref_fps.(0) <- fingerprint node;
    List.iteri
      (fun i wave ->
        List.iter (fun e -> apply_wave node [ e ]) wave;
        ref_fps.(i + 1) <- fingerprint node)
      waves;
    Heap.release node.vm.Vm.heap
  in
  let ref_fp entries =
    match boundary_at entries with
    | Some i -> ref_fps.(i)
    | None ->
        cluster_error "no reference fingerprint at entry %d (not a boundary)"
          entries
  in
  let rs =
    Array.init p.replicas (fun idx ->
        { idx;
          node = build_node ~slots:p.slots ~shards:p.shards;
          applied = 0;
          alive = true;
          down_since = -1;
          rejoins = 0;
          fps = [];
          ckpts = [] })
  in
  let injector =
    Option.map
      (fun seed ->
        let params = Fault.params_of_campaign Fault.Replica in
        let params =
          match p.scenario with
          | Some Double_crash -> { params with Fault.max_faults = 2 }
          | Some (Torn_checkpoint | Crash_mid_replay) | None -> params
        in
        Fault.seeded ~params ~seed ())
      p.crash_seed
  in
  let divergences = ref [] in
  let diverged fmt =
    Printf.ksprintf
      (fun m ->
        log ("divergence: " ^ m);
        divergences := m :: !divergences)
      fmt
  in
  let crashes = ref 0 in
  let fallbacks = ref 0 in
  let served = ref 0 in
  let missed = ref 0 in
  let max_rejoin_lag = ref 0 in
  let last_victim = ref None in
  let live () = List.filter (fun r -> r.alive) (Array.to_list rs) in
  let skip_for r =
    match p.skip_lsn with
    | Some lsn when r.idx = 0 -> fun e -> e.Cmdlog.lsn = lsn
    | _ -> fun _ -> false
  in
  (* fingerprint a replica at a boundary, record it, and run the
     divergence detector against the reference at the same entry count *)
  let boundary_check r =
    let fp = fingerprint r.node in
    r.fps <- (r.applied, fp) :: r.fps;
    let reference = ref_fp r.applied in
    if fp <> reference then
      diverged "replica %d at entry %d: fingerprint %d, reference %d" r.idx
        r.applied fp reference;
    fp
  in
  (* restore the newest usable checkpoint into a fresh skeleton and
     replay the wave suffix up to [target_wave]; unusable or lying
     checkpoints fall back to the previous one *)
  let rejoin r ~target_wave =
    let target = cums.(target_wave) in
    let interrupted = ref false in
    let rec attempt ckpts =
      match ckpts with
      | [] -> cluster_error "replica %d: no usable checkpoint" r.idx
      | (entries_at, path) :: rest -> (
          match Snapshot.load path with
          | exception Snapshot.Corrupt { path; what } ->
              incr fallbacks;
              log
                (Printf.sprintf
                   "replica %d: checkpoint %s rejected (%s); falling back"
                   r.idx (Filename.basename path) what);
              attempt rest
          | snap ->
              let node = build_node ~slots:p.slots ~shards:p.shards in
              restore_registers node.vm
                (Snapshot.restore snap node.vm.Vm.heap);
              (match Universe.get_global node.vm.Vm.u "ClusterPool" with
               | Some sem -> node.pool := sem
               | None -> cluster_error "ClusterPool missing after restore");
              let fp = fingerprint node in
              if fp <> snap.Snapshot.fingerprint then begin
                incr fallbacks;
                Heap.release node.vm.Vm.heap;
                log
                  (Printf.sprintf
                     "replica %d: checkpoint %s fingerprint %d does not \
                      survive restore (got %d); falling back"
                     r.idx (Filename.basename path)
                     snap.Snapshot.fingerprint fp);
                attempt rest
              end
              else begin
                (* find the wave boundary the checkpoint sits on *)
                let start_wave =
                  match boundary_at entries_at with
                  | Some i -> i
                  | None ->
                      cluster_error
                        "replica %d: checkpoint at entry %d is not on a \
                         wave boundary"
                        r.idx entries_at
                in
                Heap.release r.node.vm.Vm.heap;
                r.node <- node;
                r.applied <- entries_at;
                r.fps <- (entries_at, fp) :: r.fps;
                let replayed = ref false in
                (try
                   List.iteri
                     (fun i wave ->
                       if i >= start_wave && i < target_wave then begin
                         (* the crash-mid-replay scenario: the rejoining
                            replica dies again halfway through its
                            suffix and must restart the whole rejoin *)
                         if
                           (match p.scenario with
                            | Some Crash_mid_replay -> true
                            | Some (Torn_checkpoint | Double_crash) | None ->
                                false)
                           && not !interrupted
                           && i - start_wave
                              >= Int.max 1 ((target_wave - start_wave) / 2)
                         then begin
                           interrupted := true;
                           raise Exit
                         end;
                         apply_wave ~skip:(skip_for r) r.node wave;
                         r.applied <- cums.(i + 1);
                         (* replay must walk back through the replica's
                            own pre-crash fingerprints: look the old one
                            up before the boundary check records anew *)
                         let earlier = List.assoc_opt r.applied r.fps in
                         let fp = boundary_check r in
                         (match earlier with
                          | Some pre when pre <> fp ->
                              diverged
                                "replica %d: replay at entry %d gives \
                                 fingerprint %d, pre-crash was %d"
                                r.idx r.applied fp pre
                          | _ -> ())
                       end)
                     waves;
                   replayed := true
                 with Exit -> ());
                if !replayed then begin
                  r.rejoins <- r.rejoins + 1;
                  max_rejoin_lag :=
                    Int.max !max_rejoin_lag (target - entries_at);
                  log
                    (Printf.sprintf
                       "replica %d rejoined: restored entry %d, replayed %d \
                        entr%s"
                       r.idx entries_at (target - entries_at)
                       (if target - entries_at = 1 then "y" else "ies"))
                end
                else begin
                  log
                    (Printf.sprintf
                       "replica %d: crashed again mid-replay; restarting \
                        rejoin"
                       r.idx);
                  incr crashes;
                  attempt r.ckpts
                end
              end)
    in
    attempt r.ckpts;
    r.alive <- true;
    r.down_since <- -1
  in
  (* every replica writes its entries=0 checkpoint before the first
     wave: the rejoin fallback of last resort *)
  Array.iter (fun r -> checkpoint dir r) rs;
  let next_ckpt = ref p.checkpoint_every in
  List.iteri
    (fun w wave ->
      let wave_size = List.length wave in
      (* boundary fault queries, one per live replica in index order *)
      (match injector with
       | None -> ()
       | Some inj ->
           Array.iter
             (fun r ->
               if r.alive then
                 match Fault.at inj Fault.Log_entry with
                 | Some (Fault.Replica_crash k as f) ->
                     let l = live () in
                     let n = List.length l in
                     if n > 1 then begin
                       let victim =
                         match (p.scenario, !last_victim) with
                         | Some Double_crash, Some i when rs.(i).alive ->
                             rs.(i)
                         | _ -> List.nth l (k mod n)
                       in
                       Fault.applied inj f;
                       victim.alive <- false;
                       victim.down_since <- w;
                       last_victim := Some victim.idx;
                       incr crashes;
                       log
                         (Printf.sprintf
                            "replica %d crashed at entry %d (%d survivor(s) \
                             keep serving)"
                            victim.idx cums.(w) (n - 1));
                       match p.scenario with
                       | Some Torn_checkpoint -> (
                           (* crash-during-checkpoint: the victim was
                              writing a checkpoint when it died, leaving a
                              torn file the rejoin must reject *)
                           checkpoint ~tag:"-inflight" dir victim;
                           match victim.ckpts with
                           | (_, path) :: _ ->
                               truncate_file path;
                               log
                                 (Printf.sprintf
                                    "replica %d: in-flight checkpoint torn \
                                     by the crash"
                                    victim.idx)
                           | [] -> ())
                       | Some (Crash_mid_replay | Double_crash) | None -> ()
                     end
                 | Some _ | None -> ())
             rs);
      (* survivors serve the wave *)
      Array.iter
        (fun r ->
          if r.alive then begin
            apply_wave ~skip:(skip_for r) r.node wave;
            r.applied <- cums.(w + 1);
            served := !served + wave_size
          end
          else missed := !missed + wave_size)
        rs;
      (* divergence detector at the boundary: every live replica against
         the reference, and replicas against each other *)
      let fps =
        List.filter_map
          (fun r -> if r.alive then Some (r, boundary_check r) else None)
          (Array.to_list rs)
      in
      (match fps with
       | (r0, fp0) :: rest ->
           List.iter
             (fun (r, fp) ->
               if fp <> fp0 then
                 diverged
                   "replicas %d and %d disagree at entry %d: %d vs %d" r0.idx
                   r.idx cums.(w + 1) fp0 fp)
             rest
       | [] -> ());
      (* periodic checkpoints on live replicas *)
      if cums.(w + 1) >= !next_ckpt then begin
        Array.iter (fun r -> if r.alive then checkpoint dir r) rs;
        while !next_ckpt <= cums.(w + 1) do
          next_ckpt := !next_ckpt + p.checkpoint_every
        done
      end;
      (* rejoins: after the outage, or at the end of the log *)
      Array.iter
        (fun r ->
          if
            (not r.alive)
            && (w - r.down_since >= outage_waves || w = nwaves - 1)
          then rejoin r ~target_wave:(w + 1))
        rs)
    waves;
  let final_ref = ref_fps.(nwaves) in
  let converged =
    Array.for_all
      (fun r ->
        r.applied = total && current_fingerprint ~fingerprint r = final_ref)
      rs
  in
  Array.iter (fun r -> Heap.release r.node.vm.Vm.heap) rs;
  { entries = total;
    waves = nwaves;
    replicas = p.replicas;
    crashes = !crashes;
    rejoins = Array.fold_left (fun n (r : replica) -> n + r.rejoins) 0 rs;
    fallbacks = !fallbacks;
    served = !served;
    missed = !missed;
    max_rejoin_lag = !max_rejoin_lag;
    availability_permil =
      (if total * p.replicas = 0 then 0
       else !served * 1000 / (total * p.replicas));
    divergences = List.rev !divergences;
    final_fingerprint = final_ref;
    converged;
    fault_plan =
      (match injector with Some inj -> Fault.injected inj | None -> []);
    log_path;
    dir }

(* Remove a checkpoint directory [run] created: files first, then the
   directory (checkpoints and the log are its only entries). *)
let remove_dir d =
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  Sys.rmdir d

let run ?(log = fun _ -> ()) ?(observe = fun _ _ -> ()) (p : params) =
  validate p;
  match p.dir with
  | Some d ->
      ensure_dir d;
      run_in ~log ~observe p d
  | None ->
      (* created atomically, so concurrent runs never race for a name, and
         removed however the run ends *)
      let d = Filename.temp_dir "mst-cluster-" "" in
      Fun.protect
        ~finally:(fun () -> remove_dir d)
        (fun () -> run_in ~log ~observe p d)

let pp fmt o =
  Format.fprintf fmt
    "cluster: %d replica(s), %d entr%s in %d wave(s)@\n\
     faults: %d crash(es), %d rejoin(s), %d checkpoint fallback(s)@\n\
     availability: %d/%d wave-entries served (%d permil), %d missed during \
     outages, max rejoin lag %d entr%s@\n\
     fingerprints: reference %d, %s@\n"
    o.replicas o.entries
    (if o.entries = 1 then "y" else "ies")
    o.waves o.crashes o.rejoins o.fallbacks o.served (o.entries * o.replicas)
    o.availability_permil o.missed o.max_rejoin_lag
    (if o.max_rejoin_lag = 1 then "y" else "ies")
    o.final_fingerprint
    (if o.converged then "all replicas converged"
     else "NOT CONVERGED");
  if o.divergences <> [] then begin
    Format.fprintf fmt "divergences detected:@\n";
    List.iter (fun d -> Format.fprintf fmt "  %s@\n" d) o.divergences
  end
