(* Tests for garbage collection under interpreter load: scavenges triggered
   by allocation, correctness across collections, tenuring of long-lived
   data, cache flushes, the forced-scavenge primitive, and failure
   injection (exhausted old space). *)

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check = Alcotest.(check int)

let small_heap ?(processors = 1) () =
  let base = Config.testing ~processors () in
  { base with Config.eden_words = 2048; survivor_words = 1024 }

let test_scavenges_triggered () =
  let vm = Vm.create (small_heap ()) in
  (* allocate far more than eden holds *)
  check_str "allocation-heavy loop completes" "1000"
    (Vm.eval_to_string vm
       "| c | c := 0. 1 to: 1000 do: [:i | (Array new: 8) size = 8 ifTrue: [c := c + 1]]. c");
  check_bool "several scavenges happened" true (Heap.scavenge_count vm.Vm.heap > 3);
  check "heap verifies clean" 0 (List.length (Verify.check vm.Vm.heap))

let test_live_data_survives () =
  let vm = Vm.create (small_heap ()) in
  check_str "live structures survive many scavenges" "'0123456789'"
    (Vm.eval_to_string vm
       {st|
| keep |
keep := WriteStream on: (String new: 4).
0 to: 9 do: [:d |
    keep print: d.
    "generate garbage between the live appends"
    1 to: 200 do: [:i | Array new: 6]].
keep contents
|st});
  check_bool "scavenged while building" true (Heap.scavenge_count vm.Vm.heap > 0)

let test_tenuring_under_load () =
  let vm = Vm.create (small_heap ()) in
  ignore
    (Vm.eval vm
       {st|
| keep |
keep := OrderedCollection new.
1 to: 50 do: [:i | keep add: i printString].
1 to: 3000 do: [:i | Array new: 6].
keep size
|st});
  check_bool "long-lived data was tenured" true
    (Heap.tenured_words_total vm.Vm.heap > 0)

let test_forced_scavenge () =
  let vm = Vm.create (small_heap ()) in
  let before = Heap.scavenge_count vm.Vm.heap in
  check_str "Mirror scavenge runs" "true" (Vm.eval_to_string vm "Mirror scavenge. true");
  check "one more scavenge" (before + 1) (Heap.scavenge_count vm.Vm.heap)

let test_gc_stats_prim () =
  let vm = Vm.create (small_heap ()) in
  ignore (Vm.eval vm "1 to: 2000 do: [:i | Array new: 8]");
  check_str "gcStats is a 4-element array" "4"
    (Vm.eval_to_string vm "Mirror gcStats size");
  check_str "scavenge count positive" "true"
    (Vm.eval_to_string vm "(Mirror gcStats at: 1) > 0")

let test_method_cache_flushed () =
  let vm = Vm.create (small_heap ()) in
  ignore (Vm.eval vm "1 to: 50 do: [:i | i printString]");
  let hits_before = Method_cache.hits vm.Vm.states.(0).State.mcache in
  check_bool "cache had hits" true (hits_before > 0);
  ignore (Vm.eval vm "Mirror scavenge. 1 printString");
  (* after the flush, the first lookups miss again *)
  check_bool "misses recorded after flush" true
    (Method_cache.misses vm.Vm.states.(0).State.mcache > 0)

(* A flush only marks a table stale; the next probe must still miss, as
   after an immediate clear.  In [Shared_locked] mode the one shared
   table carries the flag: a flush through one view empties it for
   every view. *)
let test_probe_after_flush_misses () =
  let san = Sanitizer.create Sanitizer.Off in
  let sel = Oop.of_small 11 and cls = Oop.of_small 12 and meth = Oop.of_small 13 in
  let hit_then_flushed name fill_view probe_view flush_view =
    ignore (Method_cache.fill ~vp:(-1) fill_view ~now:0 ~sel ~cls ~meth);
    let hit = Method_cache.probe ~vp:(-1) probe_view ~now:0 ~sel ~cls in
    check_bool (name ^ ": filled entry hits") true (Oop.equal hit meth);
    Method_cache.flush flush_view;
    let misses = Method_cache.misses probe_view in
    let miss = Method_cache.probe ~vp:(-1) probe_view ~now:0 ~sel ~cls in
    check_bool (name ^ ": probe after flush misses") true
      (Oop.equal miss Oop.sentinel);
    check (name ^ ": the miss is counted") (misses + 1)
      (Method_cache.misses probe_view)
  in
  let c = Method_cache.create_replicated ~owner:0 ~sanitizer:san in
  hit_then_flushed "replicated" c c c;
  let lock = Spinlock.make ~enabled:true ~cost:Cost_model.firefly "method cache" in
  let table = Method_cache.make_table () in
  let a = Method_cache.create_shared ~sanitizer:san ~lock ~table in
  let b = Method_cache.create_shared ~sanitizer:san ~lock ~table in
  hit_then_flushed "shared, one view" a a a;
  hit_then_flushed "shared, flushed through another view" a b a

(* Installing a method flushes every processor's cache: after a
   redefinition between two evaluations, a Process on each of five
   processors must run the new method, though every processor's cache
   held the old one. *)
let test_redefinition_seen_by_every_vp () =
  let vm = Vm.create (Config.testing ~processors:5 ()) in
  Vm.load_classes vm
    {st|
CLASS FlushProbe SUPER Object
METHODS FlushProbe
answer
    ^1
!
spawn: k into: results done: sem
    [ | r |
      1 to: 300 do: [:i | r := self answer].
      results at: k put: r.
      sem signal ] fork
!
|st};
  let answers () =
    Vm.eval_to_string vm
      {st|
| results sem digits |
results := Array new: 5.
sem := Semaphore new.
1 to: 5 do: [:k | FlushProbe new spawn: k into: results done: sem].
1 to: 5 do: [:k | sem wait].
digits := 0.
results do: [:r | digits := digits * 10 + r].
digits
|st}
  in
  check_str "every Process runs the first method" "11111" (answers ());
  let hits () =
    Array.map (fun st -> Method_cache.hits st.State.mcache) vm.Vm.states
  in
  check_bool "every processor's cache was used" true
    (Array.for_all (fun h -> h > 0) (hits ()));
  Vm.load_classes vm "METHODS FlushProbe\nanswer\n    ^2\n!\n";
  let steps () = Array.map (fun st -> st.State.steps) vm.Vm.states in
  let before = steps () in
  check_str "every Process runs the redefined method" "22222"
    (answers ());
  check_bool "every processor ran" true
    (Array.for_all2 (fun a b -> b > a) before (steps ()))

let test_big_object_goes_old () =
  let vm = Vm.create (small_heap ()) in
  let old_before = Heap.old_used vm.Vm.heap in
  check_str "a big array allocates fine" "8000"
    (Vm.eval_to_string vm "(Array new: 8000) size");
  check_bool "it went directly to old space" true
    (Heap.old_used vm.Vm.heap - old_before >= 8000)

let test_old_space_exhaustion_fails_loud () =
  let base = Config.testing () in
  (* barely enough old space for the image plus a little *)
  let vm = Vm.create { base with Config.old_words = 70_000 } in
  check_bool "filling old space raises Image_full" true
    (try
       ignore
         (Vm.eval vm
            "| keep | keep := OrderedCollection new. 1 to: 100000 do: [:i | keep add: (Array new: 64)]. 0");
       false
     with Heap.Image_full _ -> true)

let test_scavenge_pause_charged_to_all () =
  let vm = Vm.create (small_heap ~processors:3 ()) in
  ignore (Vm.eval vm "1 to: 3000 do: [:i | Array new: 8]");
  check_bool "stop-the-world pauses accumulated" true (vm.Vm.scavenge_pauses > 0);
  (* every parked processor was synchronized past the pause *)
  let gc_wait =
    Array.fold_left
      (fun acc i -> acc + (Machine.vp vm.Vm.machine i).Machine.gc_wait_cycles)
      0
      [| 0; 1; 2 |]
  in
  check_bool "other processors paid the pause" true (gc_wait > 0)

(* Allocation churn that keeps four independent windows live: every
   scavenge copies real survivors, and the live graph has breadth, so the
   round-boundary work stealing can spread the copying (a single chain
   would serialize on one worker — see DESIGN.md). *)
let churn_source =
  {st|
| a b c d |
a := Array new: 60. b := Array new: 60.
c := Array new: 60. d := Array new: 60.
1 to: 2000 do: [:i |
    | j |
    j := i \\ 60 + 1.
    a at: j put: (Array new: 6).
    b at: j put: (Array new: 6).
    c at: j put: (Array new: 6).
    d at: j put: (Array new: 6)].
0
|st}

let test_parallel_scavenge_workers () =
  let run workers =
    let base = Config.ms ~processors:4 () in
    let vm =
      Vm.create
        { base with
          Config.eden_words = 2048;
          survivor_words = 1024;
          scavenge_workers = workers }
    in
    ignore (Vm.eval vm churn_source);
    check_bool "scavenges happened" true (vm.Vm.scavenge_pauses > 0);
    check "heap verifies clean" 0 (List.length (Verify.check vm.Vm.heap));
    vm
  in
  let serial = run 1 in
  let parallel = run 3 in
  check "serial config never uses the parallel scavenger" 0
    serial.Vm.par_scavenges;
  check "every pause came from the simulated parallel scavenge"
    parallel.Vm.scavenge_pauses parallel.Vm.par_scavenges;
  let mean vm = vm.Vm.scavenge_cycles / vm.Vm.scavenge_pauses in
  check_bool "three workers shorten the mean pause" true
    (mean parallel < mean serial);
  (* the per-worker totals surface through the instrumentation report *)
  let r = Instrumentation.gather parallel in
  check_bool "instrumentation reports parallel collections" true
    (r.Instrumentation.par_scavenges > 0);
  check_bool "instrumentation reports worker rows" true
    (r.Instrumentation.scavenge_workers <> [])

let test_eval_survives_many_cycles () =
  (* a long computation crossing dozens of collections gets right answers *)
  let vm = Vm.create (small_heap ()) in
  check_str "iterative string building is stable" "true"
    (Vm.eval_to_string vm
       {st|
| ok |
ok := true.
1 to: 150 do: [:n |
    | s |
    s := n printString , '/' , (n * n) printString.
    (s = (n printString , '/' , (n * n) printString)) ifFalse: [ok := false]].
ok
|st});
  check_bool "scavenges happened" true (Heap.scavenge_count vm.Vm.heap >= 1);
  check "clean heap at the end" 0 (List.length (Verify.check vm.Vm.heap))

let test_contexts_survive_scavenge () =
  (* force a scavenge in the middle of a deep call chain *)
  let vm = Vm.create (small_heap ()) in
  Vm.load_classes vm
    {st|
CLASS GcProbe SUPER Object
METHODS GcProbe
deep: n
    n = 0 ifTrue: [Mirror scavenge. ^0].
    ^1 + (self deep: n - 1)
!
|st};
  check_str "call chain survives a mid-flight scavenge" "64"
    (Vm.eval_to_string vm "GcProbe new deep: 64")

let test_blocks_survive_scavenge () =
  let vm = Vm.create (small_heap ()) in
  check_str "a live block context survives" "42"
    (Vm.eval_to_string vm
       "| b | b := [:x | x + 2]. Mirror scavenge. b value: 40")

let () =
  Alcotest.run "gc_vm"
    [ ("scavenging",
       [ Alcotest.test_case "triggered by allocation" `Quick test_scavenges_triggered;
         Alcotest.test_case "live data survives" `Quick test_live_data_survives;
         Alcotest.test_case "tenuring" `Quick test_tenuring_under_load;
         Alcotest.test_case "forced scavenge" `Quick test_forced_scavenge;
         Alcotest.test_case "gc stats" `Quick test_gc_stats_prim;
         Alcotest.test_case "cache flush" `Quick test_method_cache_flushed;
         Alcotest.test_case "probe after flush misses" `Quick
           test_probe_after_flush_misses;
         Alcotest.test_case "redefinition seen by every vp" `Quick
           test_redefinition_seen_by_every_vp ]);
      ("allocation",
       [ Alcotest.test_case "big objects go old" `Quick test_big_object_goes_old;
         Alcotest.test_case "old exhaustion is loud" `Quick
           test_old_space_exhaustion_fails_loud ]);
      ("across contexts",
       [ Alcotest.test_case "stop-the-world accounting" `Quick
           test_scavenge_pause_charged_to_all;
         Alcotest.test_case "parallel scavenge workers" `Quick
           test_parallel_scavenge_workers;
         Alcotest.test_case "long computation" `Quick test_eval_survives_many_cycles;
         Alcotest.test_case "deep chains" `Quick test_contexts_survive_scavenge;
         Alcotest.test_case "blocks" `Quick test_blocks_survive_scavenge ]) ]
