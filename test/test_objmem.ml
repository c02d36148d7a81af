(* Tests for the object memory: oop tagging, allocation, the entry table,
   and Generation Scavenging — including qcheck properties that random
   object graphs survive scavenges with their structure intact. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A small heap with a fake class object so headers have a valid class. *)
let make_heap = Testkit.make_heap

(* --- oops --- *)

let test_oop_tags () =
  check "small round trip" 42 (Oop.small_val (Oop.of_small 42));
  check "negative round trip" (-7) (Oop.small_val (Oop.of_small (-7)));
  check_bool "small is small" true (Oop.is_small (Oop.of_small 0));
  check_bool "ptr is ptr" true (Oop.is_ptr (Oop.of_addr 12));
  check "addr round trip" 12 (Oop.addr (Oop.of_addr 12));
  check_bool "tags are disjoint" true (not (Oop.is_ptr (Oop.of_small 3)))

let oop_roundtrip_prop =
  QCheck.Test.make ~name:"small integer tagging round-trips"
    QCheck.(int_range Oop.min_small Oop.max_small)
    (fun v ->
      let o = Oop.of_small v in
      Oop.is_small o && Oop.small_val o = v)

(* --- allocation and field access --- *)

let test_alloc_pointers () =
  let h, cls, nil = make_heap () in
  let o = Heap.alloc_new h ~vp:0 ~slots:3 ~raw:false ~cls () in
  check "slots" 3 (Heap.slots h (Oop.addr o));
  check_bool "class recorded" true (Oop.equal (Heap.class_at h (Oop.addr o)) cls);
  check_bool "pointer fields filled with nil" true
    (Oop.equal (Heap.get h o 0) nil && Oop.equal (Heap.get h o 2) nil);
  check_bool "fresh object is new" true (Heap.is_new h o);
  check "age starts at zero" 0 (Heap.age h (Oop.addr o))

let test_alloc_raw () =
  let h, cls, _ = make_heap () in
  let o = Heap.alloc_new h ~vp:0 ~slots:4 ~raw:true ~cls () in
  check_bool "raw flag" true (Heap.is_raw h (Oop.addr o));
  check "raw fields zeroed" 0 (Heap.get h o 0);
  Heap.set_raw h o 1 77;
  check "raw store" 77 (Heap.get h o 1)

let test_alloc_string () =
  let h, cls, _ = make_heap () in
  let s = Heap.alloc_string_old h ~cls "hello" in
  Alcotest.(check string) "string round trip" "hello" (Heap.string_value h s);
  check_bool "strings are byte objects" true (Heap.is_bytes h (Oop.addr s))

let test_eden_exhaustion () =
  let h, cls, _ = make_heap ~eden:64 () in
  Alcotest.check_raises "big eden allocation raises" Heap.Scavenge_needed
    (fun () -> ignore (Heap.alloc_new h ~vp:0 ~slots:200 ~raw:false ~cls ()))

let test_old_exhaustion () =
  let h, cls, _ = make_heap ~old:32 () in
  (* the fake class and nil already used some; exhaust the rest *)
  Alcotest.check_raises "old space exhaustion is an Image_full error"
    (Heap.Image_full "old space exhausted")
    (fun () ->
      for _ = 1 to 10 do
        ignore (Heap.alloc_old h ~slots:8 ~raw:false ~cls ())
      done)

let test_replicated_eden_regions () =
  let h, cls, _ =
    make_heap ~policy:Heap.Replicated_eden ~processors:4 ~eden:4096 ()
  in
  let o0 = Heap.alloc_new h ~vp:0 ~slots:2 ~raw:false ~cls () in
  let o3 = Heap.alloc_new h ~vp:3 ~slots:2 ~raw:false ~cls () in
  check_bool "per-processor regions are disjoint" true
    (abs (Oop.addr o0 - Oop.addr o3) >= 1024 - 8);
  check_bool "per-vp availability is a slice" true
    (Heap.eden_avail h ~vp:0 <= 1024)

let test_replicated_eden_remainder () =
  (* 4096 words over 3 processors does not divide evenly; the last slice
     must absorb the remainder so the slices tile eden exactly *)
  let h, _, _ =
    make_heap ~policy:Heap.Replicated_eden ~processors:3 ~eden:4096 ()
  in
  let rs = h.Heap.eden_regions in
  check "three slices" 3 (Array.length rs);
  check "first slice starts at the eden base" h.Heap.eden.Heap.base
    rs.(0).Heap.base;
  for i = 0 to 1 do
    check
      (Printf.sprintf "slice %d abuts slice %d" i (i + 1))
      rs.(i).Heap.limit
      rs.(i + 1).Heap.base
  done;
  check "last slice ends at the eden limit" h.Heap.eden.Heap.limit
    rs.(2).Heap.limit;
  check "no words lost to flooring" 4096
    (Array.fold_left (fun n r -> n + (r.Heap.limit - r.Heap.base)) 0 rs);
  check "the tiling invariant verifies clean" 0
    (List.length (Verify.check h))

(* --- the entry table --- *)

let test_store_check () =
  let h, cls, _ = make_heap () in
  let old_obj = Heap.alloc_old h ~slots:2 ~raw:false ~cls () in
  let young = Heap.alloc_new h ~vp:0 ~slots:1 ~raw:false ~cls () in
  check "empty to start" 0 (Heap.remembered_count h);
  let remembered = Heap.store_ptr h old_obj 0 young in
  check_bool "old->new store remembers" true remembered;
  check "entry recorded" 1 (Heap.remembered_count h);
  check_bool "flag set" true (Heap.is_remembered h (Oop.addr old_obj));
  let again = Heap.store_ptr h old_obj 1 young in
  check_bool "second store does not re-insert" false again;
  check "still one entry" 1 (Heap.remembered_count h)

let test_store_check_new_to_new () =
  let h, cls, _ = make_heap () in
  let a = Heap.alloc_new h ~vp:0 ~slots:1 ~raw:false ~cls () in
  let b = Heap.alloc_new h ~vp:0 ~slots:1 ~raw:false ~cls () in
  check_bool "new->new stores are not remembered" false (Heap.store_ptr h a 0 b);
  let old_obj = Heap.alloc_old h ~slots:1 ~raw:false ~cls () in
  check_bool "new->old stores are not remembered" false
    (Heap.store_ptr h a 0 old_obj);
  check_bool "old->old stores are not remembered" false
    (Heap.store_ptr h old_obj 0 old_obj)

(* --- scavenging --- *)

let test_scavenge_survival () =
  let h, cls, nil = make_heap () in
  let root = ref Oop.sentinel in
  Heap.add_root h root;
  (* a two-object chain and plenty of garbage *)
  let a = Heap.alloc_new h ~vp:0 ~slots:2 ~raw:false ~cls () in
  let b = Heap.alloc_new h ~vp:0 ~slots:1 ~raw:false ~cls () in
  ignore (Heap.store_ptr h a 0 b);
  ignore (Heap.store_ptr h b 0 (Oop.of_small 99));
  root := a;
  for _ = 1 to 50 do
    ignore (Heap.alloc_new h ~vp:0 ~slots:4 ~raw:false ~cls ())
  done;
  let used_before = Heap.eden_used h in
  let stats = Scavenger.scavenge h in
  check_bool "root updated to the copy" true (not (Oop.equal !root a));
  let a' = !root in
  let b' = Heap.get h a' 0 in
  check "chain intact" 99 (Oop.small_val (Heap.get h b' 0));
  check_bool "second field still nil" true (Oop.equal (Heap.get h a' 1) nil);
  check "eden reset" 0 (Heap.eden_used h);
  check_bool "garbage not copied" true
    (stats.Heap.survivor_words + stats.Heap.tenured_words < used_before);
  check "two survivors" 2 stats.Heap.survivor_objects;
  check "verify clean" 0 (List.length (Verify.check h))

let test_scavenge_updates_remembered () =
  let h, cls, _ = make_heap () in
  let old_obj = Heap.alloc_old h ~slots:1 ~raw:false ~cls () in
  let young = Heap.alloc_new h ~vp:0 ~slots:1 ~raw:false ~cls () in
  ignore (Heap.store_ptr h old_obj 0 young);
  ignore (Scavenger.scavenge h);
  let young' = Heap.get h old_obj 0 in
  check_bool "old object's field forwarded" true
    (not (Oop.equal young' young) && Heap.is_new h young');
  check_bool "still remembered (still points to new)" true
    (Heap.is_remembered h (Oop.addr old_obj));
  (* drop the reference; the next scavenge forgets the object *)
  ignore (Heap.store_ptr h old_obj 0 (Oop.of_small 1));
  ignore (Scavenger.scavenge h);
  check_bool "forgotten once the new reference is gone" false
    (Heap.is_remembered h (Oop.addr old_obj))

let test_scavenge_tenuring () =
  let h, cls, _ = make_heap ~tenure_age:3 () in
  let root = ref Oop.sentinel in
  Heap.add_root h root;
  root := Heap.alloc_new h ~vp:0 ~slots:1 ~raw:false ~cls ();
  for i = 1 to 2 do
    ignore (Scavenger.scavenge h);
    check_bool (Printf.sprintf "still in new space after %d scavenges" i)
      true (Heap.is_new h !root)
  done;
  let stats = Scavenger.scavenge h in
  check_bool "tenured into old space at the threshold" true
    (Heap.is_old h !root);
  check "tenure stats recorded" 1 stats.Heap.tenured_objects

let test_scavenge_survivor_overflow () =
  let h, cls, _ = make_heap ~eden:2048 ~survivor:32 () in
  let keep = Array.make 20 Oop.sentinel in
  Heap.add_array_root h keep;
  for i = 0 to 19 do
    keep.(i) <- Heap.alloc_new h ~vp:0 ~slots:4 ~raw:false ~cls ()
  done;
  let stats = Scavenger.scavenge h in
  check_bool "overflow promotes early" true (stats.Heap.tenured_objects > 0);
  Array.iter
    (fun o -> check_bool "every root survived somewhere" true
        (Heap.is_new h o || Heap.is_old h o))
    keep

let test_scavenge_raw_not_scanned () =
  let h, cls, _ = make_heap () in
  let root = ref Oop.sentinel in
  Heap.add_root h root;
  let r = Heap.alloc_new h ~vp:0 ~slots:2 ~raw:true ~cls () in
  (* plant something that would look like a dangling pointer *)
  Heap.set_raw h r 0 (Oop.of_addr 999_999);
  root := r;
  ignore (Scavenger.scavenge h);
  check "raw contents preserved verbatim" (Oop.of_addr 999_999)
    (Heap.get h !root 0)

let test_scavenge_cost_model () =
  let stats = Heap.empty_stats () in
  stats.Heap.survivor_words <- 100;
  stats.Heap.remembered_scanned <- 10;
  let cm = Cost_model.firefly in
  check "cost formula" (cm.Cost_model.scavenge_base
                        + (100 * cm.Cost_model.scavenge_per_word)
                        + (10 * cm.Cost_model.scavenge_per_remembered))
    (Scavenger.cost cm stats)

let test_on_scavenge_hooks () =
  let h, _, _ = make_heap () in
  let fired = ref 0 in
  Heap.on_scavenge h (fun () -> incr fired);
  ignore (Scavenger.scavenge h);
  ignore (Scavenger.scavenge h);
  check "hook fires on every scavenge" 2 !fired

(* --- property: random graphs survive scavenges isomorphically --- *)

(* Build a random graph of [n] objects in new space (only the last is
   rooted, so the rest's reachable slice is exercised against plenty of
   garbage); serialize reachable structure, scavenge (twice, to cross the
   survivor flip), and compare. *)
let graph_survival_prop =
  QCheck.Test.make ~name:"random object graphs survive scavenging" ~count:50
    Testkit.graph_arb
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let h, cls, nil = make_heap ~eden:8192 ~survivor:8192 ~old:16384 () in
      let objs = Testkit.build_graph h cls rng ~n ~processors:1 in
      let root = ref objs.(n - 1) in
      Heap.add_root h root;
      let fingerprint root = Testkit.fingerprint h nil root in
      let before = fingerprint !root in
      ignore (Scavenger.scavenge h);
      let mid = fingerprint !root in
      ignore (Scavenger.scavenge h);
      let after = fingerprint !root in
      before = mid && mid = after && Verify.check h = [])

let rset_invariant_prop =
  QCheck.Test.make
    ~name:"store checks keep the remembered-set invariant under random stores"
    ~count:50 Testkit.seed_arb
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let h, cls, _ = make_heap ~eden:8192 ~survivor:4096 ~old:32768 () in
      let olds = Array.init 10 (fun _ -> Heap.alloc_old h ~slots:3 ~raw:false ~cls ()) in
      let news = Array.init 10 (fun _ -> Heap.alloc_new h ~vp:0 ~slots:3 ~raw:false ~cls ()) in
      Heap.add_array_root h news;
      Heap.add_array_root h olds;
      for _ = 1 to 200 do
        let src =
          if Random.State.bool rng then olds.(Random.State.int rng 10)
          else news.(Random.State.int rng 10)
        in
        let v =
          match Random.State.int rng 3 with
          | 0 -> olds.(Random.State.int rng 10)
          | 1 -> news.(Random.State.int rng 10)
          | _ -> Oop.of_small (Random.State.int rng 100)
        in
        ignore (Heap.store_ptr h src (Random.State.int rng 3) v);
        if Random.State.int rng 40 = 0 then ignore (Scavenger.scavenge h)
      done;
      Verify.check h = [])

let () =
  let qtests =
    List.map QCheck_alcotest.to_alcotest
      [ oop_roundtrip_prop; graph_survival_prop; rset_invariant_prop ]
  in
  Alcotest.run "objmem"
    [ ("oop", [ Alcotest.test_case "tags" `Quick test_oop_tags ]);
      ("alloc",
       [ Alcotest.test_case "pointers" `Quick test_alloc_pointers;
         Alcotest.test_case "raw" `Quick test_alloc_raw;
         Alcotest.test_case "strings" `Quick test_alloc_string;
         Alcotest.test_case "eden exhaustion" `Quick test_eden_exhaustion;
         Alcotest.test_case "old exhaustion" `Quick test_old_exhaustion;
         Alcotest.test_case "replicated eden" `Quick test_replicated_eden_regions;
         Alcotest.test_case "replicated eden remainder" `Quick
           test_replicated_eden_remainder ]);
      ("entry_table",
       [ Alcotest.test_case "store check" `Quick test_store_check;
         Alcotest.test_case "non-old sources" `Quick test_store_check_new_to_new ]);
      ("scavenge",
       [ Alcotest.test_case "survival" `Quick test_scavenge_survival;
         Alcotest.test_case "remembered update" `Quick test_scavenge_updates_remembered;
         Alcotest.test_case "tenuring" `Quick test_scavenge_tenuring;
         Alcotest.test_case "survivor overflow" `Quick test_scavenge_survivor_overflow;
         Alcotest.test_case "raw not scanned" `Quick test_scavenge_raw_not_scanned;
         Alcotest.test_case "cost model" `Quick test_scavenge_cost_model;
         Alcotest.test_case "hooks" `Quick test_on_scavenge_hooks ]);
      ("properties", qtests) ]
