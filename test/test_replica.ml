(* Tests for the E19 replicated image cluster: snapshot/restore census
   identity, delta checkpoints that restore poked heap words word for
   word (also at the image's boundary, with maximal runs), name-keyed
   class identity, refusal of malformed regions before anything is written,
   structured rejection of damaged, old-format or foreign-image
   checkpoints and of damaged command logs, crash+restore+replay
   equivalence against the uninterrupted reference (random workloads and
   crash points), detection of a deliberately-divergent replica on every
   seed, and the corrupt-checkpoint fallback chain. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* A fresh directory, removed with its files when the test run exits. *)
let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "mst-test-replica-%d-%d" (Unix.getpid ()) !n)
    in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    at_exit (fun () ->
        if Sys.file_exists d then begin
          Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
          Sys.rmdir d
        end);
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
  reject_snapshot "bit-rot" flipped;
  (* the payload intact under a rewritten header: the loader must refuse
     an old format version and a delta against another kernel image *)
  let header, payload =
    let nl = String.index content '\n' in
    ( String.sub content 0 nl,
      String.sub content nl (String.length content - nl) )
  in
  let rewrite name f =
    let path = Filename.concat dir name in
    write_file path
      (String.concat " " (List.map f (String.split_on_char ' ' header))
       ^ payload);
    path
  in
  reject_snapshot "version 1 header"
    (rewrite "v1.snap" (fun field -> if field = "v2" then "v1" else field));
  let image_field = "image=" ^ string_of_int (Bootstrap.image_digest ()) in
  check_bool "the header names this process's image" true
    (List.mem image_field (String.split_on_char ' ' header));
  reject_snapshot "foreign image digest"
    (rewrite "foreign.snap" (fun field ->
         if field = image_field then
           "image=" ^ string_of_int (Bootstrap.image_digest () + 1)
         else field))

let reject_log what path =
  match Cmdlog.load path with
  | exception Plan.Corrupt _ -> ()
  | _ -> Alcotest.fail (what ^ ": expected Plan.Corrupt")

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
  (* ascending and counted, but the lsns must start at 0 *)
  let gap = Filename.concat dir "gap.log" in
  write_file gap "# mst command log v1\ncmd 1 0 0 0\nend 1\n";
  reject_log "lsn 1 first" gap;
  (* an empty-but-well-formed log is vacuous for the cluster *)
  let zero = Filename.concat dir "zero.log" in
  write_file zero "# mst command log v1\nend 0\n";
  ignore (Cmdlog.load zero);
  (match Cmdlog.load_nonempty zero with
   | exception Plan.Corrupt _ -> ()
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
   atomically so two runs never share one, and removes it on return. *)
let test_runs_get_distinct_dirs () =
  let p = { Replica.default_params with Replica.requests = 4 } in
  let a = (Replica.run p).Replica.dir and b = (Replica.run p).Replica.dir in
  check_bool "distinct directories" true (a <> b);
  List.iter
    (fun d -> check_bool (d ^ " is gone") false (Sys.file_exists d))
    [ a; b ];
  let kept = tmp_dir () in
  let o = Replica.run { p with Replica.dir = Some kept } in
  check_bool "a caller's dir keeps its log" true (Sys.file_exists o.Replica.log_path)

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

(* Restore [snap] with [bad] as its heap image, in which some region is
   malformed: restore must refuse it before writing anything — the
   target's old-space pointer and a word of old space dirtied beforehand
   both stay as they were. *)
let restore_refused what snap (h : Heap.t) bad =
  let bad = { snap with Snapshot.heap = bad } in
  let ptr = h.Heap.old.Heap.ptr and a = h.Heap.old.Heap.base in
  let word = h.Heap.mem.(a) in
  h.Heap.mem.(a) <- lnot word;
  check_string what "mismatch"
    (try
       ignore (Snapshot.restore bad h);
       "restored"
     with Snapshot.Mismatch _ -> "mismatch");
  check (what ^ ": target pointer untouched") ptr h.Heap.old.Heap.ptr;
  check (what ^ ": old space unwritten") (lnot word) h.Heap.mem.(a);
  h.Heap.mem.(a) <- word

(* [snap] with [old_image] as its old space. *)
let with_old snap old_image =
  { snap.Snapshot.heap with Snapshot.i_old = old_image }

let test_restore_rejects_bad_bump_pointer () =
  let h, snap = captured_node () in
  let img = snap.Snapshot.heap.Snapshot.i_old in
  restore_refused "pointer past the copied words" snap h
    (with_old snap { img with Snapshot.r_ptr = img.Snapshot.r_ptr + 1 });
  restore_refused "pointer below the region base" snap h
    (with_old snap
       { img with Snapshot.r_ptr = img.Snapshot.r_base - 1; r_runs = [] })

let test_restore_rejects_pointer_past_limit () =
  let h, snap = captured_node () in
  (* runs that cover the pointer, but one word more than the region
     holds *)
  let img = snap.Snapshot.heap.Snapshot.i_old in
  let n = img.Snapshot.r_limit - img.Snapshot.r_base + 1 in
  restore_refused "pointer past the region limit" snap h
    (with_old snap
       { img with
         Snapshot.r_ptr = img.Snapshot.r_base + n;
         r_runs = [ (img.Snapshot.r_base, Array.make n 0) ] })

(* A fresh node's old space ends past the image (the cluster classes),
   so its last run reaches the bump pointer. *)
let old_runs snap =
  let img = snap.Snapshot.heap.Snapshot.i_old in
  let runs = img.Snapshot.r_runs in
  let image_end =
    img.Snapshot.r_base + Array.length (Bootstrap.image_words ())
  in
  (match List.rev runs with
   | (a, w) :: _ ->
       check_bool "the last run ends at the bump pointer" true
         (a + Array.length w = img.Snapshot.r_ptr
          && img.Snapshot.r_ptr > image_end)
   | [] -> Alcotest.fail "a fresh node's old space has no runs");
  (img, runs)

let test_restore_rejects_runs_outside_prefix () =
  let h, snap = captured_node () in
  let img, runs = old_runs snap in
  let base = img.Snapshot.r_base and ptr = img.Snapshot.r_ptr in
  restore_refused "run below the region base" snap h
    (with_old snap
       { img with Snapshot.r_runs = (base - 1, [| 0 |]) :: runs });
  restore_refused "run past the bump pointer" snap h
    (with_old snap
       { img with Snapshot.r_runs = runs @ [ (ptr, [| 0 |]) ] });
  restore_refused "empty run" snap h
    (with_old snap
       { img with Snapshot.r_runs = (base, [||]) :: runs })

let test_restore_rejects_overlapping_runs () =
  let h, snap = captured_node () in
  let img, runs = old_runs snap in
  (match runs with
   | first :: _ ->
       restore_refused "a run repeated" snap h
         (with_old snap { img with Snapshot.r_runs = first :: runs })
   | [] -> ());
  match List.rev runs with
  | (a, w) :: earlier ->
      (* the last run split in two halves that share a word *)
      let n = Array.length w in
      let k = n / 2 in
      restore_refused "runs sharing a word" snap h
        (with_old snap
           { img with
             Snapshot.r_runs =
               List.rev earlier
               @ [ (a, Array.sub w 0 (k + 1)); (a + k, Array.sub w k (n - k)) ]
           })
  | [] -> ()

let test_restore_rejects_uncovered_tail () =
  let h, snap = captured_node () in
  let img, runs = old_runs snap in
  restore_refused "tail past the image not covered" snap h
    (with_old snap
       { img with Snapshot.r_runs = List.rev (List.tl (List.rev runs)) });
  (* the same for a region wholly outside the image: a later region's
     refusal must come before old space is written *)
  let surv = snap.Snapshot.heap.Snapshot.i_surv_a in
  restore_refused "survivor words not covered" snap h
    { snap.Snapshot.heap with
      Snapshot.i_surv_a =
        { surv with
          Snapshot.r_ptr = surv.Snapshot.r_base + 1;
          r_runs = [] } }

(* --- delta checkpoints round-trip word for word ---

   Words poked into a node's heap — inside the image's range, past its
   end in old space, and in eden — must come back exactly after capture,
   save, load and restore into another node dirtied differently: the
   restore rebuilds each used prefix from the image and the runs alone,
   whatever the target held before.  The pokes are SmallIntegers, which
   no walk follows; one that lands on a header can still send the census
   off the heap, so the fingerprints are compared as results. *)

let poke (h : Heap.t) pokes =
  let old = h.Heap.old and eden = h.Heap.eden in
  let image_end = old.Heap.base + Array.length (Bootstrap.image_words ()) in
  List.iter
    (fun (zone, offset, v) ->
      let lo, hi =
        match zone with
        | 0 -> (old.Heap.base, image_end)
        | 1 -> (image_end, old.Heap.ptr)
        | _ -> (eden.Heap.base, eden.Heap.ptr)
      in
      if hi > lo then
        h.Heap.mem.(lo + (offset mod (hi - lo))) <- Oop.of_small v)
    pokes

let dirtied_node ~seed ~waves pokes =
  let node = Replica.build_node ~slots:3 ~shards:4 in
  let all = Cmdlog.schedule ~slots:3 (entries_for ~seed ~requests:12) in
  List.iteri (fun i w -> if i < waves then Replica.apply_wave node w) all;
  poke node.Replica.vm.Vm.heap pokes;
  node

let fingerprint_result vm =
  match Replica.fingerprint_of vm with
  | fp -> Ok fp
  | exception e -> Error (Printexc.to_string e)

(* Everything restore promises to reproduce, by name. *)
let observables vm =
  let h = vm.Vm.heap in
  let region name (r : Heap.region) =
    ( name,
      `Words
        (r.Heap.base, r.Heap.ptr,
         Array.sub h.Heap.mem r.Heap.base (r.Heap.ptr - r.Heap.base)) )
  in
  [ region "old space" h.Heap.old;
    region "eden" h.Heap.eden;
    region "survivor a" h.Heap.surv_a;
    region "survivor b" h.Heap.surv_b ]
  @ Array.to_list (Array.map (region "eden slice") h.Heap.eden_regions)
  @ [ ( "counters",
        `Ints
          [ h.Heap.allocations; h.Heap.words_allocated; h.Heap.scavenge_count;
            h.Heap.words_copied_total; h.Heap.tenured_words_total;
            h.Heap.free_list_hits; h.Heap.free_reused_words;
            h.Heap.free_words; Bool.to_int h.Heap.past_is_a ] );
      ( "entry table",
        `Ints (Array.to_list (Array.sub h.Heap.rset 0 h.Heap.rset_len)) );
      ("free lists", `Lists (Array.to_list h.Heap.free_lists));
      ("registers", `Registers (Replica.capture_registers vm));
      ("fingerprint", `Fingerprint (fingerprint_result vm)) ]

let poke_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 12)
      (triple (int_range 0 2) (int_range 0 1_000_000) (int_range (-1000) 1000)))

let delta_round_trip_prop =
  QCheck.Test.make ~count:20
    ~name:"a delta checkpoint restores poked words word for word"
    QCheck.(quad (int_range 0 3) poke_gen (int_range 0 3) poke_gen)
    (fun (waves, pokes, target_waves, target_pokes) ->
      let node = dirtied_node ~seed:7 ~waves pokes in
      let vm = node.Replica.vm in
      let want = observables vm in
      let snap =
        Snapshot.capture vm.Vm.heap ~fingerprint:0 ~entries:waves
          ~registers:(Replica.capture_registers vm)
      in
      let path = Filename.concat (tmp_dir ()) "delta.snap" in
      Snapshot.save path snap;
      let loaded = Snapshot.load path in
      Sys.remove path;
      let target = dirtied_node ~seed:11 ~waves:target_waves target_pokes in
      let tvm = target.Replica.vm in
      Replica.restore_registers tvm (Snapshot.restore loaded tvm.Vm.heap);
      let differing =
        List.filter_map
          (fun ((name, w), (_, g)) -> if w = g then None else Some name)
          (List.combine want (observables tvm))
      in
      if differing <> [] then
        QCheck.Test.fail_reportf "restored %s differ"
          (String.concat ", " differing);
      true)

(* --- capture at the image boundary ---

   Capture compares only the words the image has and takes every other
   word of a used prefix as differing.  Pokes inside the image, on its
   last word, on the first word past it and in eden must still come back
   word for word after capture, save, load and restore into a fresh
   node, and every region's runs must be the maximal ones: non-empty,
   ascending and never adjacent (adjacent runs would be one). *)

let check_runs what (img : Snapshot.region_image) =
  ignore
    (List.fold_left
       (fun prev (a, words) ->
         if Array.length words = 0 then
           QCheck.Test.fail_reportf "%s: empty run at %d" what a;
         if a <= prev then
           QCheck.Test.fail_reportf "%s: run at %d touches or precedes %d"
             what a prev;
         a + Array.length words)
       (img.Snapshot.r_base - 1) img.Snapshot.r_runs)

let boundary_round_trip_prop =
  QCheck.Test.make ~count:20
    ~name:"capture at the image boundary restores word for word"
    QCheck.(
      list_of_size (Gen.int_range 1 12)
        (triple (int_range 0 3) (int_range 0 1_000_000)
           (int_range (-1000) 1000)))
    (fun pokes ->
      let node = Replica.build_node ~slots:2 ~shards:2 in
      let vm = node.Replica.vm in
      let h = vm.Vm.heap in
      let old = h.Heap.old and eden = h.Heap.eden in
      let image_end =
        old.Heap.base + Array.length (Bootstrap.image_words ())
      in
      List.iter
        (fun (zone, offset, v) ->
          let poke a = h.Heap.mem.(a) <- Oop.of_small v in
          match zone with
          | 0 -> poke (old.Heap.base + (offset mod (image_end - old.Heap.base)))
          | 1 -> poke (image_end - 1)
          | 2 -> poke image_end
          | _ ->
              if eden.Heap.ptr > eden.Heap.base then
                poke
                  (eden.Heap.base
                  + (offset mod (eden.Heap.ptr - eden.Heap.base))))
        pokes;
      let want = observables vm in
      let snap =
        Snapshot.capture h ~fingerprint:0 ~entries:0
          ~registers:(Replica.capture_registers vm)
      in
      let i = snap.Snapshot.heap in
      List.iter
        (fun (what, img) -> check_runs what img)
        ([ ("old space", i.Snapshot.i_old); ("eden", i.Snapshot.i_eden);
           ("survivor a", i.Snapshot.i_surv_a);
           ("survivor b", i.Snapshot.i_surv_b) ]
        @ Array.to_list
            (Array.map (fun r -> ("eden slice", r)) i.Snapshot.i_eden_regions));
      let path = Filename.concat (tmp_dir ()) "boundary.snap" in
      Snapshot.save path snap;
      let loaded = Snapshot.load path in
      Sys.remove path;
      let fresh = Replica.build_node ~slots:2 ~shards:2 in
      let fvm = fresh.Replica.vm in
      Replica.restore_registers fvm (Snapshot.restore loaded fvm.Vm.heap);
      let differing =
        List.filter_map
          (fun ((name, w), (_, g)) -> if w = g then None else Some name)
          (List.combine want (observables fvm))
      in
      if differing <> [] then
        QCheck.Test.fail_reportf "restored %s differ"
          (String.concat ", " differing);
      true)

(* --- name-keyed classes ---

   [Explorer.stable_class_key] must give what walking the sorted global
   names did, the last binding winning: a class bound under several
   names takes the greatest name's key, a class bound under none its
   address. *)

let sorted_walk_key vm =
  let u = vm.Vm.u in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun name ->
      match Universe.get_global u name with
      | Some v when Oop.is_ptr v -> Hashtbl.replace tbl v (Fnv.string name)
      | _ -> ())
    (Universe.global_names u);
  fun cls ->
    match Hashtbl.find_opt tbl cls with
    | Some k -> k
    | None -> if Oop.is_ptr cls then Oop.addr cls else -1

let test_class_key_greatest_name () =
  let node = Replica.build_node ~slots:2 ~shards:2 in
  let vm = node.Replica.vm in
  let u = vm.Vm.u in
  let point =
    match Universe.find_class u "Point" with
    | Some c -> c
    | None -> Alcotest.fail "no Point class"
  in
  (* enough aliases that neither the first nor the last binding met in
     the table's order is the greatest *)
  List.iter
    (fun name -> Universe.set_global u name point)
    ("Pointy" :: List.init 40 (Printf.sprintf "P%02d"));
  let key = Explorer.stable_class_key vm in
  check "the greatest of 42 names" (Fnv.string "Pointy") (key point);
  check "as the sorted walk gave" (sorted_walk_key vm point) (key point);
  List.iter
    (fun name ->
      match Universe.get_global u name with
      | Some v ->
          check ("global " ^ name) (sorted_walk_key vm v) (key v)
      | None -> ())
    (Universe.global_names u)

let test_class_key_unnamed () =
  let node = Replica.build_node ~slots:2 ~shards:2 in
  let vm = node.Replica.vm in
  let h = vm.Vm.heap in
  let point =
    match Universe.find_class vm.Vm.u "Point" with
    | Some c -> c
    | None -> Alcotest.fail "no Point class"
  in
  let unnamed = Heap.alloc_old h ~slots:0 ~raw:false ~cls:point () in
  let key = Explorer.stable_class_key vm in
  check "an unnamed class keys by address" (Oop.addr unnamed) (key unnamed);
  check "as the sorted walk gave" (sorted_walk_key vm unnamed) (key unnamed)

(* --- fingerprints through the frozen image part ---

   A node fingerprints through a census part frozen over its kernel
   image, which skips the image while the words its walk read are
   unchanged.  Every fingerprint a run takes must still be the full
   census's: on the reference, on every replica at every boundary, on a
   restored skeleton and through a rejoin's replay. *)

let observed_run p =
  let seen = ref 0 and holding = ref 0 in
  let o =
    Replica.run p ~observe:(fun node fp ->
        incr seen;
        let vm = node.Replica.vm in
        check
          (Printf.sprintf "fingerprint %d against the full census" !seen)
          (Replica.fingerprint_of vm) fp;
        match node.Replica.image_part with
        | Some part ->
            if
              Verify.holds part vm.Vm.heap ~roots:(Explorer.stable_roots vm)
            then incr holding
        | None -> Alcotest.fail "a fingerprint froze no image part")
  in
  (o, !seen, !holding)

let test_frozen_fingerprints_match () =
  let o, seen, holding = observed_run Replica.default_params in
  check_bool "converged" true o.Replica.converged;
  check_bool "every boundary observed" true (seen > 3 * o.Replica.waves);
  check "the image part held at every fingerprint" seen holding;
  let o, seen, holding =
    observed_run { Replica.default_params with Replica.crash_seed = Some 5 }
  in
  check_bool "a replica rejoined" true (o.Replica.rejoins > 0);
  check_bool "and converged" true
    (o.Replica.converged && o.Replica.divergences = []);
  check "the image part held at every fingerprint" seen holding

(* A kernel global rebound after the freeze changes a word the image
   walk read (the association's value): the part no longer holds, and
   the fingerprint falls back to the full walk, which no longer meets
   the old TranscriptStream. *)
let test_frozen_fingerprint_falls_back () =
  let node = Replica.build_node ~slots:2 ~shards:2 in
  let vm = node.Replica.vm in
  let before = Replica.fingerprint node in
  check "frozen at the first fingerprint" before (Replica.fingerprint_of vm);
  let part =
    match node.Replica.image_part with
    | Some part -> part
    | None -> Alcotest.fail "no image part after a fingerprint"
  in
  let h = vm.Vm.heap in
  let assoc = Universe.global_assoc vm.Vm.u "Transcript" in
  let image_end =
    h.Heap.old.Heap.base + Array.length (Bootstrap.image_words ())
  in
  check_bool "the association lies in the image" true
    (Oop.addr assoc < image_end);
  Universe.set_global vm.Vm.u "Transcript" (Oop.of_small 7);
  check_bool "the part no longer holds" false
    (Verify.holds part h ~roots:(Explorer.stable_roots vm));
  let after = Replica.fingerprint node in
  check "the fallback gives the full census" (Replica.fingerprint_of vm) after;
  check_bool "which saw the change" true (after <> before)

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
           `Quick test_restore_rejects_pointer_past_limit;
         Alcotest.test_case "restore rejects runs outside the used prefix"
           `Quick test_restore_rejects_runs_outside_prefix;
         Alcotest.test_case "restore rejects overlapping runs" `Quick
           test_restore_rejects_overlapping_runs;
         Alcotest.test_case "restore rejects an uncovered tail" `Quick
           test_restore_rejects_uncovered_tail;
         q delta_round_trip_prop;
         q boundary_round_trip_prop;
         Alcotest.test_case "a class named often keys by the greatest name"
           `Quick test_class_key_greatest_name;
         Alcotest.test_case "an unnamed class keys by its address" `Quick
           test_class_key_unnamed ]);
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
           test_runs_get_distinct_dirs ]);
      ("frozen image part",
       [ Alcotest.test_case "every fingerprint equals the full census"
           `Quick test_frozen_fingerprints_match;
         Alcotest.test_case "a changed image word falls back" `Quick
           test_frozen_fingerprint_falls_back ]) ]
