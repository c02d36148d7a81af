(* Tests for the heap verifier itself: golden census totals and
   fingerprints that pin the reachability walk to exact numbers, a
   reference census that random graphs must count alike, and planted
   corruptions that [Verify.check] must report.  Every other
   suite asserts a clean heap, so without these a [check] that accepted
   everything, or a census that miscounted consistently, would pass. *)

let check = Alcotest.(check int)

(* --- golden census ---

   A census is a property of the reachable graph, not of how the walk
   remembers what it has seen, so these numbers must not move when the
   walk changes. *)

let check_census label ~objects ~words ~fingerprint (c : Verify.census) =
  check (label ^ ": objects") objects c.Verify.objects;
  check (label ^ ": words") words c.Verify.words;
  check (label ^ ": fingerprint") fingerprint (Verify.fingerprint c)

let stable_census ?(extra = []) vm =
  Verify.census vm.Vm.heap
    ~stop:(Explorer.schedule_dependent vm)
    ~class_key:(Explorer.stable_class_key vm)
    ~roots:(extra @ Explorer.stable_roots vm)

let test_golden_explorer_vm () =
  let setup = Explorer.ms_setup ~quick:true () in
  let vm = Vm.create setup.Explorer.config in
  check_census "fresh VM" ~objects:2183 ~words:53825
    ~fingerprint:1129734129446530297 (stable_census vm);
  let result = Vm.eval vm setup.Explorer.source in
  check_census "after the doIt" ~objects:2183 ~words:53825
    ~fingerprint:1129734129446530297
    (stable_census ~extra:[ result ] vm);
  (* without the fence the walk also enters Processes and their context
     chains, whose scanned frames end at the stack pointer *)
  check_census "after the doIt, unfenced" ~objects:2193 ~words:53871
    ~fingerprint:2326498762414524789
    (Verify.census vm.Vm.heap ~roots:(result :: Explorer.stable_roots vm))

let test_golden_testkit_graph () =
  let h, cls, _ = Testkit.make_heap ~eden:8192 ~survivor:4096 ~old:32768 () in
  let rng = Random.State.make [| 21 |] in
  let objs =
    Testkit.build_graph ~old_holders:6 ~root_objs:true h cls rng ~n:60
      ~processors:1
  in
  let before = Verify.census h ~roots:(Array.to_list objs) in
  check_census "fresh graph" ~objects:61 ~words:276
    ~fingerprint:1441719161536587385 before;
  (* the same graph after the scavenger has moved every object *)
  ignore (Scavenger.scavenge h);
  check_census "after a scavenge" ~objects:61 ~words:276
    ~fingerprint:1441719161536587385
    (Verify.census h ~roots:(Array.to_list objs));
  (* a partial root set reaches a strict subset *)
  check_census "every third root" ~objects:35 ~words:162
    ~fingerprint:2433876978368795139
    (Verify.census h
       ~roots:(List.filteri (fun i _ -> i mod 3 = 0) (Array.to_list objs)))

let test_golden_replica () =
  let node = Replica.build_node ~slots:2 ~shards:2 in
  check "fresh node" 853086993544948886
    (Replica.fingerprint_of node.Replica.vm);
  let entries =
    Cmdlog.to_list (Cmdlog.generate ~seed:3 ~requests:8 ~sessions:2 ~shards:2)
  in
  List.iter (Replica.apply_wave node) (Cmdlog.schedule ~slots:2 entries);
  check "after eight entries" 1836404995906834883
    (Replica.fingerprint_of node.Replica.vm)

(* --- the census against a reference ---

   The census as it was before its per-class table hashed in OCaml,
   kept as the oracle: an address-keyed walk with the same traversal
   rules, counting per class oop in a [Hashtbl.Make (Int)], then folding
   the classes into their keys and sorting. *)

module Int_tbl = Hashtbl.Make (Int)

let reference_census ~stop ?class_key h ~roots =
  let seen = Int_tbl.create 64 in
  let stack = ref [] in
  let push o =
    if Oop.is_ptr o && not (Oop.equal o Oop.sentinel) then
      let a = Oop.addr o in
      if (not (Int_tbl.mem seen a)) && not (stop o) then begin
        Int_tbl.replace seen a ();
        stack := a :: !stack
      end
  in
  List.iter push roots;
  let by_class = Int_tbl.create 64 in
  let objects = ref 0 and words = ref 0 in
  while !stack <> [] do
    let a = List.hd !stack in
    stack := List.tl !stack;
    incr objects;
    words := !words + Heap.size_words h a;
    let cls = Heap.class_at h a in
    (match Int_tbl.find_opt by_class cls with
     | Some n -> incr n
     | None -> Int_tbl.add by_class cls (ref 1));
    push cls;
    for i = 0 to Scavenger.scan_limit h a - 1 do
      push (Heap.get h (Oop.of_addr a) i)
    done
  done;
  let key =
    match class_key with
    | Some f -> f
    | None -> fun cls -> if Oop.is_ptr cls then Oop.addr cls else -1
  in
  let by_key = Int_tbl.create 64 in
  Int_tbl.iter
    (fun cls n ->
      let k = key cls in
      match Int_tbl.find_opt by_key k with
      | Some m -> m := !m + !n
      | None -> Int_tbl.add by_key k (ref !n))
    by_class;
  let per_class =
    List.sort compare (Int_tbl.fold (fun k n acc -> (k, !n) :: acc) by_key [])
  in
  { Verify.objects = !objects; words = !words; per_class }

(* Random graphs over up to 300 classes, more than the census table's
   initial 64 buckets hold before it grows; a random set of objects the
   walk must not enter; default keys, or keys that fold the classes
   onto 1–4 values, so that distinct classes collide. *)
let census_matches_reference =
  QCheck.Test.make ~count:200 ~name:"census equals the reference census"
    QCheck.(
      quad (int_range 1 200) (int_range 1 300) (int_range 0 4)
        Testkit.seed_arb)
    (fun (n, classes, fold, seed) ->
      let h, cls, _ =
        Testkit.make_heap ~eden:8192 ~survivor:4096 ~old:32768 ()
      in
      let rng = Random.State.make [| seed |] in
      let objs = Testkit.build_graph h cls rng ~n ~processors:1 in
      let class_oops =
        Array.init classes (fun _ ->
            Heap.alloc_old h ~slots:0 ~raw:false ~cls ())
      in
      Array.iter
        (fun o ->
          Heap.set_class h (Oop.addr o)
            class_oops.(Random.State.int rng classes))
        objs;
      let index = Hashtbl.create classes in
      Array.iteri (fun i c -> Hashtbl.replace index c i) class_oops;
      let class_key =
        if fold = 0 then None
        else
          Some
            (fun c ->
              match Hashtbl.find_opt index c with
              | Some i -> i mod fold
              | None -> -1)
      in
      let stopped = Hashtbl.create 16 in
      Array.iter
        (fun o ->
          if Random.State.int rng 6 = 0 then Hashtbl.replace stopped o ())
        objs;
      let stop o = Hashtbl.mem stopped o in
      let roots =
        List.filter (fun _ -> Random.State.bool rng) (Array.to_list objs)
      in
      let got = Verify.census ~stop ?class_key h ~roots in
      let want = reference_census ~stop ?class_key h ~roots in
      if got <> want then
        QCheck.Test.fail_reportf "census %a, reference %a" Verify.pp_census
          got Verify.pp_census want;
      true)

(* --- frozen parts ---

   A census given a frozen part must equal the census without it,
   whatever changed after the freeze: a header or class word, a scanned
   slot, a raw payload word, a root added or removed, or an object at
   the range's edge.  The graph lives mostly in old space, some of it in
   eden; raw payloads hold pointer-looking words the walk must not
   follow.  The range is any stretch of allocated old space, cutting
   objects at either end.  [image], when given, is the range's words
   with a few of them wrong, so the part keeps some words of its own. *)

let frozen_census_matches =
  QCheck.Test.make ~count:300
    ~name:"census with a frozen part equals the census without"
    QCheck.(triple Testkit.seed_arb (int_range 0 4) bool)
    (fun (seed, changes, with_image) ->
      let h, cls, _ =
        Testkit.make_heap ~eden:8192 ~survivor:4096 ~old:32768 ()
      in
      let rng = Random.State.make [| seed |] in
      let int n = Random.State.int rng n in
      let pick a = a.(int (Array.length a)) in
      let classes =
        Array.init 4 (fun _ -> Heap.alloc_old h ~slots:0 ~raw:false ~cls ())
      in
      let objs =
        Array.init
          (5 + int 60)
          (fun _ ->
            let slots = int 5 and raw = int 5 = 0 and cls = pick classes in
            if int 4 = 0 then Heap.alloc_new h ~vp:0 ~slots ~raw ~cls ()
            else Heap.alloc_old h ~slots ~raw ~cls ())
      in
      let value () =
        if int 3 = 0 then Oop.of_small (int 100) else pick objs
      in
      let fill o i =
        if Heap.is_raw h (Oop.addr o) then Heap.set_raw h o i (value ())
        else ignore (Heap.store_ptr h o i (value ()))
      in
      Array.iter
        (fun o ->
          for i = 0 to Heap.slots h (Oop.addr o) - 1 do
            fill o i
          done)
        objs;
      let old = h.Heap.old in
      let lo = old.Heap.base + int (old.Heap.ptr - old.Heap.base + 1) in
      let hi = lo + int (old.Heap.ptr - lo + 1) in
      let in_range o = Oop.addr o >= lo && Oop.addr o < hi in
      let stopped = Hashtbl.create 16 in
      Array.iter (fun o -> if int 6 = 0 then Hashtbl.replace stopped o ()) objs;
      let stop o = Hashtbl.mem stopped o in
      let roots = ref (List.filter (fun _ -> int 3 = 0) (Array.to_list objs)) in
      let image =
        if with_image then begin
          let image = Array.sub h.Heap.mem lo (int (hi - lo + 1)) in
          for _ = 1 to int 4 do
            if Array.length image > 0 then
              image.(int (Array.length image)) <- Oop.of_small (int 100)
          done;
          Some image
        end
        else None
      in
      let frozen = Verify.freeze ~stop ?image h ~lo ~hi ~roots:!roots in
      let targets () =
        match List.filter in_range (Array.to_list objs) with
        | [] -> objs
        | l -> Array.of_list l
      in
      for _ = 1 to changes do
        match int 7 with
        | 0 -> Heap.set_class h (Oop.addr (pick (targets ()))) (pick classes)
        | 1 ->
            (* raw payloads hold valid oops, so either reading is sane *)
            let a = Oop.addr (pick (targets ())) in
            h.Heap.mem.(a) <- h.Heap.mem.(a) lxor Layout.flag_raw
        | 2 ->
            let o = pick (targets ()) in
            let n = Heap.slots h (Oop.addr o) in
            if n > 0 then fill o (int n)
        | 3 ->
            let o = pick objs in
            let n = Heap.slots h (Oop.addr o) in
            if n > 0 && Heap.is_raw h (Oop.addr o) then
              Heap.set_raw h o (int n) (pick objs)
        | 4 -> roots := pick objs :: !roots
        | 5 -> roots := List.filter (fun _ -> int 3 > 0) !roots
        | _ -> (
            (* the last object to start in the range, which may run past
               its end: its class word or its last slot *)
            match
              List.rev
                (List.sort Int.compare
                   (List.filter in_range (Array.to_list objs)))
            with
            | [] -> ()
            | o :: _ ->
                let n = Heap.slots h (Oop.addr o) in
                if n = 0 then Heap.set_class h (Oop.addr o) (pick classes)
                else fill o (n - 1))
      done;
      let result frozen =
        match Verify.census ~stop ?frozen h ~roots:!roots with
        | c -> Ok c
        | exception Invalid_argument m -> Error m
      in
      let got = result (Some frozen) and want = result None in
      if got <> want then
        QCheck.Test.fail_reportf
          "[%d, %d) after %d change(s): census %s with the part, %s without"
          lo hi changes
          (match got with
           | Ok c -> Format.asprintf "%a" Verify.pp_census c
           | Error m -> m)
          (match want with
           | Ok c -> Format.asprintf "%a" Verify.pp_census c
           | Error m -> m);
      true)

(* --- planted corruptions ---

   One corruption per heap.  Each must be reported at its address with
   its message; other problems it causes (a dangling field that is also
   an unremembered new reference, a free-list total that no longer adds
   up) may be reported as well. *)

let problems h =
  match Verify.check h with
  | ps -> ps
  | exception e ->
      Alcotest.failf "Verify.check raised %s" (Printexc.to_string e)

let expect_problem h ~addr ~what =
  let ps = problems h in
  let found (p : Verify.problem) = p.addr = addr && p.what = what in
  if not (List.exists found ps) then
    Alcotest.failf "expected @%d: %s among [%s]" addr what
      (String.concat "; "
         (List.map (Format.asprintf "%a" Verify.pp_problem) ps))

(* A clean heap with an old object, a new object and a second old
   object to corrupt. *)
let corruptible () =
  let h, cls, _ = Testkit.make_heap () in
  let holder = Heap.alloc_old h ~slots:2 ~raw:false ~cls () in
  let young = Heap.alloc_new h ~vp:0 ~slots:2 ~raw:false ~cls () in
  let other = Heap.alloc_old h ~slots:3 ~raw:false ~cls () in
  check "clean before the corruption" 0 (List.length (problems h));
  (h, holder, young, other)

let dangling_field target () =
  let h, holder, _, other = corruptible () in
  Heap.set_raw h holder 1 (target h other);
  expect_problem h ~addr:(Oop.addr holder) ~what:"field 1 is a dangling pointer"

let test_field_into_old_gap =
  dangling_field (fun h _ -> Oop.of_addr (h.Heap.old.Heap.ptr + 4))

let test_field_past_memory =
  dangling_field (fun h _ -> Oop.of_addr (Array.length h.Heap.mem + 16))

let test_field_interior =
  dangling_field (fun _ other -> Oop.of_addr (Oop.addr other + 1))

let test_forwarded_header () =
  let h, _, _, other = corruptible () in
  h.Heap.mem.(Oop.addr other) <- Layout.forwarded_marker;
  expect_problem h ~addr:(Oop.addr other)
    ~what:"forwarded object outside a scavenge"

let test_unremembered_store () =
  let h, holder, young, _ = corruptible () in
  (* a raw store skips the store check *)
  Heap.set_raw h holder 0 young;
  expect_problem h ~addr:(Oop.addr holder)
    ~what:"old object with new references is not remembered"

let test_remembered_without_entry () =
  let h, _, _, other = corruptible () in
  let a = Oop.addr other in
  h.Heap.mem.(a) <- h.Heap.mem.(a) lor Layout.flag_remembered;
  expect_problem h ~addr:a
    ~what:"remembered flag set but object absent from entry table"

let test_doubly_threaded_hole () =
  let h, _, _, other = corruptible () in
  let a = Oop.addr other in
  let words = Heap.size_words h a in
  Heap.free_add h a words;
  check "one clean hole" 0 (List.length (problems h));
  let b = words - 2 in
  h.Heap.free_lists.(b) <- a :: h.Heap.free_lists.(b);
  expect_problem h ~addr:a ~what:"address threaded on the free lists twice"

(* Objects are checked in a walk of the regions, so problems come in
   address order whatever order the corruptions were planted in. *)
let test_address_order () =
  let h, holder, young, other = corruptible () in
  List.iter
    (fun o -> Heap.set_raw h o 1 (Oop.of_addr (Oop.addr o + 1)))
    [ young; other; holder ];
  let addrs = List.map (fun (p : Verify.problem) -> p.addr) (problems h) in
  Alcotest.(check (list int))
    "one problem per object, in address order"
    (List.map Oop.addr [ holder; other; young ])
    addrs

(* The census remembers visited objects in an address bitmap with bits
   only for allocated space.  An oop anywhere else must be refused by
   name, not folded onto some other object's bit. *)
let test_census_refuses_unallocated () =
  let h, holder, young, other = corruptible () in
  let good = [ holder; young; other ] in
  let baseline = Verify.census h ~roots:good in
  List.iter
    (fun a ->
      let bad = Oop.of_addr a in
      let expected =
        Invalid_argument
          (Printf.sprintf "Verify: oop @%d is outside allocated space" a)
      in
      Alcotest.check_raises (Printf.sprintf "root @%d" a) expected (fun () ->
          ignore (Verify.census h ~roots:(good @ [ bad ])));
      (* reached through a field rather than named as a root *)
      Heap.set_raw h other 0 bad;
      Alcotest.check_raises (Printf.sprintf "field @%d" a) expected (fun () ->
          ignore (Verify.census h ~roots:good));
      Heap.set_raw h other 0 (Oop.of_small 0))
    [ h.Heap.old.Heap.ptr; h.Heap.new_base - 1; 1;
      Array.length h.Heap.mem; Array.length h.Heap.mem + 1000 ];
  let after = Verify.census h ~roots:good in
  check "same objects once repaired" baseline.Verify.objects
    after.Verify.objects;
  check "same words once repaired" baseline.Verify.words after.Verify.words

let () =
  Alcotest.run "verify"
    [ ("golden census",
       [ Alcotest.test_case "explorer VM" `Quick test_golden_explorer_vm;
         Alcotest.test_case "testkit graph" `Quick test_golden_testkit_graph;
         Alcotest.test_case "replica fingerprint" `Quick test_golden_replica ]);
      ("check reports",
       [ Alcotest.test_case "field into the old-space gap" `Quick
           test_field_into_old_gap;
         Alcotest.test_case "field past the end of memory" `Quick
           test_field_past_memory;
         Alcotest.test_case "field at an interior word" `Quick
           test_field_interior;
         Alcotest.test_case "forwarded header" `Quick test_forwarded_header;
         Alcotest.test_case "unremembered old-to-new store" `Quick
           test_unremembered_store;
         Alcotest.test_case "remembered flag without an entry" `Quick
           test_remembered_without_entry;
         Alcotest.test_case "doubly threaded free-list hole" `Quick
           test_doubly_threaded_hole;
         Alcotest.test_case "problems in address order" `Quick
           test_address_order ]);
      ("census refusals",
       [ Alcotest.test_case "oop outside allocated space" `Quick
           test_census_refuses_unallocated ]);
      ("census reference",
       [ QCheck_alcotest.to_alcotest census_matches_reference;
         QCheck_alcotest.to_alcotest frozen_census_matches ]) ]
