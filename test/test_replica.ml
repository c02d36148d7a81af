(* Tests for the E19 replicated image cluster: snapshot/restore census
   identity, structured rejection of damaged checkpoints and command
   logs, crash+restore+replay equivalence against the uninterrupted
   reference (random workloads and crash points), detection of a
   deliberately-divergent replica on every seed, and the
   corrupt-checkpoint fallback chain. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "mst-test-replica-%d-%d" (Unix.getpid ()) !n)
    in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    d

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- snapshot/restore census identity (satellite 1) ---

   The whole fingerprint scheme rests on the census being stable across
   snapshot/restore: same roots, same stop predicate, same name-keyed
   classes must count the same objects — not merely the same
   fingerprint, the same (class, count) list bit for bit. *)

let census vm =
  Verify.census vm.Vm.heap
    ~stop:(Explorer.schedule_dependent vm)
    ~class_key:(Explorer.stable_class_key vm)
    ~roots:(Explorer.stable_roots vm)

let entries_for ~seed ~requests =
  Cmdlog.to_list (Cmdlog.generate ~seed ~requests ~sessions:4 ~shards:4)

let test_snapshot_restore_census_identical () =
  let node = Replica.build_node ~slots:3 ~shards:4 in
  let waves = Cmdlog.schedule ~slots:3 (entries_for ~seed:7 ~requests:10) in
  List.iter (fun w -> Replica.apply_wave node w) waves;
  let before = census node.Replica.vm in
  let fp = Replica.fingerprint_of node.Replica.vm in
  let snap =
    Snapshot.capture node.Replica.vm.Vm.heap ~fingerprint:fp ~entries:10
      ~registers:(Replica.capture_registers node.Replica.vm)
  in
  let dir = tmp_dir () in
  let path = Filename.concat dir "census.snap" in
  Snapshot.save path snap;
  let loaded = Snapshot.load path in
  check "header entries survive the round trip" 10 loaded.Snapshot.entries;
  check "header fingerprint survives the round trip" fp
    loaded.Snapshot.fingerprint;
  let fresh = Replica.build_node ~slots:3 ~shards:4 in
  Replica.restore_registers fresh.Replica.vm
    (Snapshot.restore loaded fresh.Replica.vm.Vm.heap);
  let after = census fresh.Replica.vm in
  check "same reachable objects" before.Verify.objects after.Verify.objects;
  check "same reachable words" before.Verify.words after.Verify.words;
  check_bool "per-class census bit-identical" true
    (before.Verify.per_class = after.Verify.per_class);
  check "fingerprint reproduced after restore" fp
    (Replica.fingerprint_of fresh.Replica.vm)

(* The restored machine is not a museum piece: it must keep executing.
   Apply the same next wave to the original and the restored copy and
   require identical fingerprints again. *)
let test_restored_machine_keeps_executing () =
  let all = entries_for ~seed:3 ~requests:12 in
  let waves = Cmdlog.schedule ~slots:3 all in
  let prefix, suffix =
    match waves with
    | a :: b :: rest -> ([ a; b ], rest)
    | _ -> Alcotest.fail "expected at least three waves"
  in
  let node = Replica.build_node ~slots:3 ~shards:4 in
  List.iter (fun w -> Replica.apply_wave node w) prefix;
  let snap =
    Snapshot.capture node.Replica.vm.Vm.heap
      ~fingerprint:(Replica.fingerprint_of node.Replica.vm)
      ~entries:0
      ~registers:(Replica.capture_registers node.Replica.vm)
  in
  let fresh = Replica.build_node ~slots:3 ~shards:4 in
  Replica.restore_registers fresh.Replica.vm
    (Snapshot.restore snap fresh.Replica.vm.Vm.heap);
  List.iter
    (fun w ->
      Replica.apply_wave node w;
      Replica.apply_wave fresh w;
      check "restored copy tracks the original"
        (Replica.fingerprint_of node.Replica.vm)
        (Replica.fingerprint_of fresh.Replica.vm))
    suffix

(* --- structured rejection (satellite 2) ---

   Both durable loaders must reject empty, truncated and unparseable
   files with the structured Corrupt error — never a crash, never a
   silently-wrong load. *)

let reject_snapshot what path =
  match Snapshot.load path with
  | exception Snapshot.Corrupt _ -> ()
  | _ -> Alcotest.fail (what ^ ": expected Snapshot.Corrupt")

let test_snapshot_loader_rejects () =
  let dir = tmp_dir () in
  let empty = Filename.concat dir "empty.snap" in
  write_file empty "";
  reject_snapshot "empty" empty;
  (match Snapshot.read_header empty with
   | exception Snapshot.Corrupt _ -> ()
   | _ -> Alcotest.fail "read_header accepted an empty file");
  let garbage = Filename.concat dir "garbage.snap" in
  write_file garbage "not a checkpoint at all\njunk\n";
  reject_snapshot "unparseable" garbage;
  (* a real checkpoint, then torn: the checksum must catch it *)
  let node = Replica.build_node ~slots:2 ~shards:2 in
  let snap =
    Snapshot.capture node.Replica.vm.Vm.heap
      ~fingerprint:(Replica.fingerprint_of node.Replica.vm)
      ~entries:0
      ~registers:(Replica.capture_registers node.Replica.vm)
  in
  let whole = Filename.concat dir "whole.snap" in
  Snapshot.save whole snap;
  ignore (Snapshot.load whole);
  let torn = Filename.concat dir "torn.snap" in
  let content = read_file whole in
  write_file torn (String.sub content 0 (String.length content / 2));
  reject_snapshot "truncated" torn;
  (* damaged in place: flip one payload byte under a valid header *)
  let flipped = Filename.concat dir "flipped.snap" in
  let b = Bytes.of_string content in
  let i = String.length content - 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  write_file flipped (Bytes.to_string b);
  reject_snapshot "bit-rot" flipped

let reject_log what path =
  match Cmdlog.load path with
  | exception Cmdlog.Corrupt _ -> ()
  | _ -> Alcotest.fail (what ^ ": expected Cmdlog.Corrupt")

let test_cmdlog_loader_rejects () =
  let dir = tmp_dir () in
  let empty = Filename.concat dir "empty.log" in
  write_file empty "";
  reject_log "empty" empty;
  let garbage = Filename.concat dir "garbage.log" in
  write_file garbage "these are not log entries\n";
  reject_log "unparseable" garbage;
  let whole = Filename.concat dir "whole.log" in
  Cmdlog.save whole (Cmdlog.generate ~seed:1 ~requests:6 ~sessions:2 ~shards:2);
  ignore (Cmdlog.load_nonempty whole);
  let torn = Filename.concat dir "torn.log" in
  let content = read_file whole in
  write_file torn (String.sub content 0 (String.length content * 2 / 3));
  reject_log "truncated" torn;
  (* an empty-but-well-formed log is vacuous for the cluster *)
  let zero = Filename.concat dir "zero.log" in
  Cmdlog.save zero (Cmdlog.create ());
  ignore (Cmdlog.load zero);
  (match Cmdlog.load_nonempty zero with
   | exception Cmdlog.Corrupt _ -> ()
   | _ -> Alcotest.fail "load_nonempty accepted an empty log")

(* --- the cluster equivalence property (satellite 3) ---

   Random workloads, random crash points: a cluster that crashes a
   replica, restores its checkpoint and replays the suffix must end with
   every replica at the uninterrupted reference's fingerprint, with no
   divergence recorded at any boundary along the way. *)

let cluster_equivalence_prop =
  QCheck.Test.make ~count:8
    ~name:"crash+restore+replay equals the uninterrupted reference"
    QCheck.(
      triple (int_range 1 1000) (int_range 1 1000) (int_range 12 28))
    (fun (log_seed, crash_seed, requests) ->
      let o =
        Replica.run
          { Replica.default_params with
            Replica.requests; log_seed; crash_seed = Some crash_seed;
            Replica.checkpoint_every = 6 }
      in
      o.Replica.converged && o.Replica.divergences = []
      && o.Replica.served + o.Replica.missed
         = o.Replica.entries * o.Replica.replicas)

(* A deliberately-divergent configuration — replica 0 silently drops one
   log entry — must be caught by the detector on every seed. *)
let divergence_detected_prop =
  QCheck.Test.make ~count:8
    ~name:"a replica that skips one entry is caught on every seed"
    QCheck.(pair (int_range 1 1000) (int_range 0 9))
    (fun (log_seed, skip) ->
      let o =
        Replica.run
          { Replica.default_params with
            Replica.requests = 12; log_seed; skip_lsn = Some skip }
      in
      o.Replica.divergences <> [] && not o.Replica.converged)

(* --- the fallback chain (satellite 6's scenarios, directly) --- *)

let test_torn_checkpoint_falls_back () =
  let o =
    Replica.run
      { Replica.default_params with
        Replica.requests = 24; crash_seed = Some 5;
        Replica.scenario = Some Replica.Torn_checkpoint }
  in
  check_bool "a crash happened" true (o.Replica.crashes > 0);
  check_bool "the torn checkpoint was rejected" true
    (o.Replica.fallbacks > 0);
  check_bool "the replica still rejoined" true (o.Replica.rejoins > 0);
  check_bool "and converged" true
    (o.Replica.converged && o.Replica.divergences = [])

let test_crash_mid_replay_recovers () =
  let o =
    Replica.run
      { Replica.default_params with
        Replica.requests = 24; crash_seed = Some 5;
        Replica.scenario = Some Replica.Crash_mid_replay }
  in
  check_bool "the rejoin was interrupted and retried" true
    (o.Replica.crashes > 1);
  check_bool "converged" true
    (o.Replica.converged && o.Replica.divergences = [])

let test_double_crash_recovers () =
  let o =
    Replica.run
      { Replica.default_params with
        Replica.requests = 24; crash_seed = Some 5;
        Replica.scenario = Some Replica.Double_crash }
  in
  check "two crashes" 2 o.Replica.crashes;
  check "two rejoins" 2 o.Replica.rejoins;
  check_bool "converged" true
    (o.Replica.converged && o.Replica.divergences = [])

(* Availability accounting: survivors keep serving while a replica is
   down, so a crashed run serves strictly less than everything but far
   more than nothing. *)
let test_availability_accounting () =
  let o =
    Replica.run
      { Replica.default_params with
        Replica.requests = 24; crash_seed = Some 5 }
  in
  check_bool "an outage was recorded" true (o.Replica.missed > 0);
  check_bool "availability below 1000 permil" true
    (o.Replica.availability_permil < 1000);
  check_bool "survivors kept the cluster above 2/3" true
    (o.Replica.availability_permil >= 667);
  check "every entry accounted"
    (o.Replica.entries * o.Replica.replicas)
    (o.Replica.served + o.Replica.missed)

let test_rejects_bad_params () =
  let expect_error p =
    try
      ignore (Replica.run p);
      false
    with Replica.Cluster_error _ -> true
  in
  check_bool "zero replicas rejected" true
    (expect_error { Replica.default_params with Replica.replicas = 0 });
  check_bool "17 shards rejected (4-bit encoding)" true
    (expect_error { Replica.default_params with Replica.shards = 17 });
  check_bool "zero checkpoint cadence rejected" true
    (expect_error
       { Replica.default_params with Replica.checkpoint_every = 0 })

(* Without [dir], each run gets a directory of its own, created
   atomically: two runs never share one, and both exist afterwards. *)
let test_runs_get_distinct_dirs () =
  let p = { Replica.default_params with Replica.requests = 4 } in
  let a = (Replica.run p).Replica.dir and b = (Replica.run p).Replica.dir in
  check_bool "distinct directories" true (a <> b);
  List.iter
    (fun d ->
      check_bool (d ^ " exists") true (Sys.is_directory d);
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d)
    [ a; b ]

(* A two-slot node and a checkpoint of its freshly built heap. *)
let captured_node () =
  let node = Replica.build_node ~slots:2 ~shards:2 in
  let h = node.Replica.vm.Vm.heap in
  let snap =
    Snapshot.capture h
      ~fingerprint:(Replica.fingerprint_of node.Replica.vm)
      ~entries:0
      ~registers:(Replica.capture_registers node.Replica.vm)
  in
  (h, snap)

let test_restore_rejects_wrong_geometry () =
  let _, snap = captured_node () in
  (* a target with different region sizes: restore must refuse, not
     scribble over a heap laid out differently *)
  let small =
    Vm.create
      { (Config.ms ~processors:2 ()) with
        Config.eden_words = Config.default_eden_words / 2 }
  in
  check_string "geometry mismatch refused" "mismatch"
    (try
       ignore (Snapshot.restore snap small.Vm.heap);
       "restored"
     with Snapshot.Mismatch _ -> "mismatch");
  (* under the serialized-allocation MS config the heap layout does not
     depend on the processor count, so the heap restores into a wider
     skeleton — the register layer is what refuses the slot mismatch *)
  let wider = Replica.build_node ~slots:4 ~shards:2 in
  let regs = Snapshot.restore snap wider.Replica.vm.Vm.heap in
  check_string "register slot mismatch refused" "refused"
    (try
       Replica.restore_registers wider.Replica.vm regs;
       "restored"
     with Replica.Cluster_error _ -> "refused")

(* Restore [snap] with [old_image] as its old space, a region whose bump
   pointer is bad: restore must refuse it rather than set a pointer that
   disagrees with the memory it copied in, and must leave the target's
   pointer alone. *)
let restore_refused what snap (h : Heap.t) old_image =
  let bad =
    { snap with
      Snapshot.heap = { snap.Snapshot.heap with Snapshot.i_old = old_image } }
  in
  let ptr = h.Heap.old.Heap.ptr in
  check_string what "mismatch"
    (try
       ignore (Snapshot.restore bad h);
       "restored"
     with Snapshot.Mismatch _ -> "mismatch");
  check (what ^ ": target pointer untouched") ptr h.Heap.old.Heap.ptr

let test_restore_rejects_bad_bump_pointer () =
  let h, snap = captured_node () in
  let img = snap.Snapshot.heap.Snapshot.i_old in
  restore_refused "pointer past the copied words" snap h
    { img with Snapshot.r_ptr = img.Snapshot.r_ptr + 1 }

let test_restore_rejects_pointer_past_limit () =
  let h, snap = captured_node () in
  (* consistent words and pointer, but one word more than the region
     holds *)
  let img = snap.Snapshot.heap.Snapshot.i_old in
  let n = img.Snapshot.r_limit - img.Snapshot.r_base + 1 in
  restore_refused "pointer past the region limit" snap h
    { img with
      Snapshot.r_ptr = img.Snapshot.r_base + n;
      r_words = Array.make n 0 }

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "replica"
    [ ("snapshot",
       [ Alcotest.test_case "restore reproduces the census bit for bit"
           `Quick test_snapshot_restore_census_identical;
         Alcotest.test_case "restored machine keeps executing" `Quick
           test_restored_machine_keeps_executing;
         Alcotest.test_case "loader rejects empty/truncated/unparseable"
           `Quick test_snapshot_loader_rejects;
         Alcotest.test_case "restore rejects wrong geometry" `Quick
           test_restore_rejects_wrong_geometry;
         Alcotest.test_case "restore rejects a bump pointer off its words"
           `Quick test_restore_rejects_bad_bump_pointer;
         Alcotest.test_case "restore rejects a bump pointer past its limit"
           `Quick test_restore_rejects_pointer_past_limit ]);
      ("cmdlog",
       [ Alcotest.test_case "loader rejects empty/truncated/unparseable"
           `Quick test_cmdlog_loader_rejects ]);
      ("cluster",
       [ q cluster_equivalence_prop;
         q divergence_detected_prop;
         Alcotest.test_case "torn checkpoint falls back" `Quick
           test_torn_checkpoint_falls_back;
         Alcotest.test_case "crash mid-replay recovers" `Quick
           test_crash_mid_replay_recovers;
         Alcotest.test_case "double crash recovers" `Quick
           test_double_crash_recovers;
         Alcotest.test_case "availability accounting" `Quick
           test_availability_accounting;
         Alcotest.test_case "bad params rejected" `Quick
           test_rejects_bad_params;
         Alcotest.test_case "runs without a dir get distinct ones" `Quick
           test_runs_get_distinct_dirs ]) ]
