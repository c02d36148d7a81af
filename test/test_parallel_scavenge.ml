(* Tests for the simulated parallel scavenger (E10): the claim/buffer
   protocol preserves random object graphs for every worker count, the
   simulation is deterministic and pinned exactly for k = 2, 3 and 5, the
   per-worker timelines respect the analytic bounds, and worker
   statistics are self-consistent. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cm = Cost_model.firefly

(* A replicated-eden heap with a fake class object, as the paper's MS
   configuration would hand the scavenger. *)
let make_heap = Testkit.make_replicated_heap

(* Random graphs spread across the per-processor eden slices, with a few
   old-space holders so the entry table has entries to shard; the whole
   array is rooted.  Fingerprints are the shared structural DFS. *)
let build_graph = Testkit.build_graph ~old_holders:6 ~root_objs:true
let fingerprint = Testkit.fingerprint

(* --- properties --- *)

let parallel_survival_prop =
  QCheck.Test.make
    ~name:
      "random graphs survive parallel scavenging for any worker count, \
       strict-sanitizer clean"
    ~count:40 Testkit.graph_workers_arb
    (fun (n, seed, workers) ->
      let rng = Random.State.make [| seed |] in
      let processors = 4 in
      let san = Sanitizer.create Sanitizer.Strict in
      let h, cls, nil = make_heap ~processors ~sanitizer:san () in
      let objs = build_graph h cls rng ~n ~processors in
      let root = ref objs.(n - 1) in
      Heap.add_root h root;
      let before = fingerprint h nil !root in
      ignore (Scavenger.scavenge_parallel h cm ~workers ());
      let mid = fingerprint h nil !root in
      (* a second collection crosses the survivor flip, so past-space
         fillers and copied objects are both exercised as from-space *)
      ignore (Scavenger.scavenge_parallel h cm ~workers ());
      let after = fingerprint h nil !root in
      before = mid && mid = after && Verify.check h = [])

let parallel_matches_serial_prop =
  QCheck.Test.make
    ~name:"parallel and serial scavenges preserve the same structure"
    ~count:40 Testkit.graph_arb
    (fun (n, seed) ->
      let run ~parallel =
        let rng = Random.State.make [| seed |] in
        let processors = 4 in
        let h, cls, nil = make_heap ~processors () in
        let objs = build_graph h cls rng ~n ~processors in
        let root = ref objs.(n - 1) in
        Heap.add_root h root;
        if parallel then ignore (Scavenger.scavenge_parallel h cm ~workers:3 ())
        else ignore (Scavenger.scavenge h);
        (fingerprint h nil !root, Verify.check h = [])
      in
      let fp_serial, ok_serial = run ~parallel:false in
      let fp_parallel, ok_parallel = run ~parallel:true in
      ok_serial && ok_parallel && fp_serial = fp_parallel)

(* --- determinism --- *)

let build_and_collect seed workers =
  let rng = Random.State.make [| seed |] in
  let processors = 4 in
  let h, cls, _ = make_heap ~processors () in
  let objs = build_graph h cls rng ~n:50 ~processors in
  let root = ref objs.(49) in
  Heap.add_root h root;
  let stats, pr = Scavenger.scavenge_parallel h cm ~workers () in
  (h, stats, pr)

let test_determinism () =
  List.iter
    (fun workers ->
      let h1, _, pr1 = build_and_collect 12345 workers in
      let h2, _, pr2 = build_and_collect 12345 workers in
      check_bool
        (Printf.sprintf "k=%d: identical runs give bit-identical heaps"
           workers)
        true
        (Array.length h1.Heap.mem = Array.length h2.Heap.mem
        && Array.for_all2 Int.equal h1.Heap.mem h2.Heap.mem);
      check
        (Printf.sprintf "k=%d: identical runs give identical pauses" workers)
        pr1.Scavenger.pause_cycles pr2.Scavenger.pause_cycles;
      check
        (Printf.sprintf "k=%d: identical round counts" workers)
        pr1.Scavenger.rounds pr2.Scavenger.rounds)
    [ 1; 2; 3; 5 ]

(* --- the analytic cross-check --- *)

(* The simulated pause must lie between perfect division of the measured
   copy and scan work (plus the scavenge base) and the corrected serial
   formula plus every coordination cycle the simulation charged. *)
let test_analytic_bounds () =
  List.iter
    (fun workers ->
      let _, stats, pr = build_and_collect 999 workers in
      let copied = stats.Heap.survivor_words + stats.Heap.tenured_words in
      let work =
        (cm.Cost_model.scavenge_per_word * copied)
        + (cm.Cost_model.scavenge_per_remembered
           * stats.Heap.remembered_scanned)
      in
      check_bool
        (Printf.sprintf "k=%d: pause at least perfectly-divided work" workers)
        true
        (pr.Scavenger.pause_cycles
         >= cm.Cost_model.scavenge_base + (work / workers));
      check_bool
        (Printf.sprintf "k=%d: pause at most serial cost + coordination"
           workers)
        true
        (pr.Scavenger.pause_cycles
         <= Scavenger.cost cm stats + pr.Scavenger.coordination_cycles))
    [ 2; 3; 5 ]

(* --- worker statistics --- *)

let test_worker_stats_consistent () =
  let h, stats, pr = build_and_collect 4242 3 in
  check "result reports the requested worker count" 3 pr.Scavenger.workers;
  let sum f =
    Array.fold_left (fun n w -> n + f w) 0 pr.Scavenger.worker_stats
  in
  check "workers copied exactly the surviving words"
    (stats.Heap.survivor_words + stats.Heap.tenured_words)
    (sum (fun w -> w.Scavenger.copied_words));
  check "workers copied exactly the surviving objects"
    (stats.Heap.survivor_objects + stats.Heap.tenured_objects)
    (sum (fun w -> w.Scavenger.copied_objects));
  check "every entry-table entry was scanned by exactly one worker"
    stats.Heap.remembered_scanned
    (sum (fun w -> w.Scavenger.entries_scanned));
  let max_busy =
    Array.fold_left
      (fun m w -> max m w.Scavenger.busy_cycles)
      0 pr.Scavenger.worker_stats
  in
  Array.iter
    (fun w ->
      check
        (Printf.sprintf "worker %d idles exactly to the slowest timeline"
           w.Scavenger.worker)
        (max_busy - w.Scavenger.busy_cycles)
        w.Scavenger.idle_cycles)
    pr.Scavenger.worker_stats;
  (* fillers may pad the survivor space, never shrink it below the copies *)
  check_bool "survivor space holds at least the copied words" true
    (Heap.survivor_used h >= stats.Heap.survivor_words);
  check "heap verifies clean" 0 (List.length (Verify.check h))

let test_zero_copy_scavenge () =
  (* nothing live in new space: the parallel scavenge still terminates,
     runs zero grey rounds, and the heap stays clean *)
  let h, cls, _ = make_heap () in
  for vp = 0 to 3 do
    ignore (Heap.alloc_new h ~vp ~slots:4 ~raw:false ~cls ())
  done;
  let stats, pr = Scavenger.scavenge_parallel h cm ~workers:3 () in
  check "nothing copied" 0
    (stats.Heap.survivor_words + stats.Heap.tenured_words);
  check "no grey rounds" 0 pr.Scavenger.rounds;
  check "no barriers charged" 0 pr.Scavenger.barrier_cycles;
  check "verify clean" 0 (List.length (Verify.check h))

(* --- golden k>1 collections ---

   Exact outcomes of three successive parallel collections for k = 2, 3
   and 5, recorded before the serial and parallel collectors came to
   share their copy, forward, scan and flip.  Each collection adds a
   fresh graph with an array root over its first eight objects, two root cells and
   old-space holders; a small survivor space forces overflow promotion
   and [tenure_age = 2] promotes the previous graph by age.  Root order,
   claim order, buffer placement and every timeline term show up in the
   summaries or in the digest of the heap's memory, taken word by word
   ([words_digest]) on the same heaps the earlier [Marshal] digest pinned. *)

(* The MD5 of the words, each as 8 little-endian bytes: [Heap.mem] is an
   abstract block, which [Marshal] refuses. *)
let words_digest mem =
  let b = Buffer.create (8 * Array.length mem) in
  Array.iter (fun w -> Buffer.add_int64_le b (Int64.of_int w)) mem;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_run workers =
  let rng = Random.State.make [| 1988 |] in
  let processors = 4 in
  let h, cls, _ =
    make_heap ~processors ~survivor:512 ~tenure_age:2
      ~sanitizer:(Sanitizer.create Sanitizer.Strict) ()
  in
  let summaries =
    List.init 3 (fun _ ->
        let n = 120 in
        let objs =
          Testkit.build_graph ~old_holders:3 h cls rng ~n ~processors
        in
        Heap.add_array_root h (Array.sub objs 0 8);
        Heap.add_root h (ref objs.(n - 1));
        Heap.add_root h (ref objs.((3 * n) / 4));
        let _, pr = Scavenger.scavenge_parallel h cm ~workers () in
        Printf.sprintf "pause=%d rounds=%d coord=%d %s"
          pr.Scavenger.pause_cycles pr.Scavenger.rounds pr.Scavenger.coordination_cycles
          (String.concat " "
             (Array.to_list
                (Array.map
                   (fun w ->
                     Printf.sprintf "w%d:%d/%d/%d" w.Scavenger.worker
                       w.Scavenger.copied_words w.Scavenger.steals
                       w.Scavenger.chunks_claimed)
                   pr.Scavenger.worker_stats))))
  in
  check "verify clean" 0 (List.length (Verify.check h));
  (summaries, words_digest h.Heap.mem)

let golden =
  [ ( 2,
      [ "pause=14180 rounds=5 coord=1080 w0:76/0/1 w1:49/0/1";
        "pause=15015 rounds=5 coord=1242 w0:82/0/2 w1:124/0/2";
        "pause=14335 rounds=4 coord=1075 w0:92/0/2 w1:91/1/2" ],
      "aebfbe20c68bbc135c1ea3080fe50c07" );
    ( 3,
      [ "pause=13987 rounds=5 coord=1201 w0:26/1/1 w1:37/0/1 w2:62/0/1";
        "pause=14366 rounds=5 coord=1350 w0:56/0/2 w1:68/0/2 w2:82/0/2";
        "pause=13973 rounds=4 coord=1208 w0:59/1/2 w1:69/0/2 w2:55/1/2" ],
      "38b5a2a0e8b2f622f481bb68ce880624" );
    ( 5,
      [ "pause=13858 rounds=5 coord=1443 w0:20/1/1 w1:34/0/1 w2:47/0/1 \
         w3:11/1/1 w4:13/1/1";
        "pause=14192 rounds=5 coord=1635 w0:46/0/2 w1:52/0/2 w2:64/0/2 \
         w3:16/2/2 w4:15/1/1";
        "pause=13906 rounds=4 coord=1389 w0:50/0/2 w1:21/1/2 w2:21/1/2 \
         w3:61/0/2 w4:15/1/1" ],
      "51158f5c39b025707b2f8c7f5b91a69a" ) ]

let test_golden () =
  List.iter
    (fun (workers, summaries, digest) ->
      let got, got_digest = golden_run workers in
      Alcotest.(check (list string))
        (Printf.sprintf "k=%d: per-collection summaries" workers)
        summaries got;
      Alcotest.(check string)
        (Printf.sprintf "k=%d: heap digest" workers)
        digest got_digest)
    golden

let () =
  let qtests =
    List.map QCheck_alcotest.to_alcotest
      [ parallel_survival_prop; parallel_matches_serial_prop ]
  in
  Alcotest.run "parallel_scavenge"
    [ ("properties", qtests);
      ("determinism",
       [ Alcotest.test_case "bit-identical heaps and pauses" `Quick
           test_determinism ]);
      ("golden",
       [ Alcotest.test_case "k>1 collections" `Quick test_golden ]);
      ("cost",
       [ Alcotest.test_case "analytic bounds" `Quick test_analytic_bounds ]);
      ("stats",
       [ Alcotest.test_case "worker stats" `Quick test_worker_stats_consistent;
         Alcotest.test_case "zero-copy collection" `Quick
           test_zero_copy_scavenge ]) ]
