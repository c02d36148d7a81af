(* Tests for the bootstrap image: the kernel class hierarchy, reflection,
   the programming-environment tools (browse, search, compile, decompile,
   inspect), the I/O service objects, the recycling of a released or
   dropped heap's memory (and the refusal of a second release), and
   booting from the cached kernel image. *)

let vm = lazy (Vm.create (Config.testing ()))
let ev src = Vm.eval_to_string (Lazy.force vm) src
let check_eval name expected src = Alcotest.(check string) name expected (ev src)
let check_bool = Alcotest.(check bool)

let test_kernel_classes_present () =
  List.iter
    (fun name ->
      check_bool (name ^ " exists") true
        (Universe.find_class (Lazy.force vm).Vm.u name <> None))
    [ "Object"; "UndefinedObject"; "Boolean"; "True"; "False"; "Magnitude";
      "Character"; "Number"; "Integer"; "SmallInteger"; "Float"; "Link";
      "Association"; "Collection"; "SequenceableCollection";
      "ArrayedCollection"; "Array"; "String"; "Symbol"; "Interval";
      "OrderedCollection"; "Dictionary"; "Set"; "Stream"; "ReadStream";
      "WriteStream"; "LinkedList"; "Semaphore"; "Process";
      "ProcessorScheduler"; "MethodContext"; "BlockContext"; "Class";
      "CompiledMethod"; "MethodDictionary"; "Mirror"; "TranscriptStream";
      "DisplayScreen"; "Inspector"; "Point" ]

let test_hierarchy_shape () =
  check_eval "Object has no superclass" "true" "Object superclass isNil";
  check_eval "SmallInteger < Integer" "Integer" "SmallInteger superclass";
  check_eval "Integer < Number < Magnitude" "Magnitude"
    "Integer superclass superclass";
  check_eval "Symbol < String" "String" "Symbol superclass";
  check_eval "Semaphore < LinkedList" "LinkedList" "Semaphore superclass";
  check_eval "Process < Link" "Link" "Process superclass";
  check_eval "subclasses computed" "true"
    "(Number subclasses includes: Integer)";
  check_eval "allSubclasses transitive" "true"
    "(Magnitude allSubclasses includes: SmallInteger)";
  check_eval "withAllSubclasses includes self" "true"
    "(Number withAllSubclasses includes: Number)"

let test_class_reflection () =
  check_eval "Point ivars" "2" "Point instSize";
  check_eval "ivar names" "'#x'" "Point ivarNames first printString";
  check_eval "selectors nonempty" "true" "Point selectors size > 3";
  check_eval "includesSelector" "true" "Point includesSelector: #x";
  check_eval "methodAt: finds" "true" "(Point methodAt: #x) notNil";
  check_eval "methodAt: misses" "true" "(Point methodAt: #zork) isNil";
  check_eval "method selector" "'#x'" "(Point methodAt: #x) selector printString";
  check_eval "method source kept" "true"
    "((Point methodAt: #x) source includesSubstring: 'x')";
  check_eval "method printString" "'Point>>x'"
    "(Point methodAt: #x) printString"

let test_all_classes () =
  check_eval "allClasses is rich" "true" "Mirror allClasses size > 30";
  check_eval "allClasses holds classes" "true"
    "Mirror allClasses allSatisfy: [:c | c isClass]"

let test_definition_string () =
  check_eval "definition mentions the superclass" "true"
    "(Point definitionString includesSubstring: 'Object subclass: #Point')";
  check_eval "definition mentions ivars" "true"
    "(Point definitionString includesSubstring: 'x y')"

let test_hierarchy_string () =
  check_eval "hierarchy lists subclasses indented" "true"
    "(Number hierarchyString includesSubstring: 'SmallInteger')";
  check_eval "hierarchy starts at the receiver" "true"
    "(Number hierarchyString startsWith: 'Number')"

let test_implementors_senders () =
  check_eval "implementors of printString include Integer" "true"
    "((Mirror implementorsOf: #printString) includes: Integer)";
  check_eval "implementors of zork are none" "0"
    "(Mirror implementorsOf: #zork) size";
  check_eval "senders of signal: found" "true"
    "(Mirror sendersOf: #signal) size > 0";
  check_eval "sendersOf finds factorial's recursion" "true"
    "((Mirror sendersOf: #factorial) collect: [:a | a key]) includes: Integer"

let test_runtime_compile () =
  let vm' = Lazy.force vm in
  Vm.load_classes vm' "CLASS Scratch SUPER Object IVARS v\n";
  check_eval "compile a method at runtime" "'ok'"
    "Mirror compile: 'probe ^''ok''' into: Scratch classSide: false. Scratch new probe";
  check_eval "recompile replaces" "'two'"
    "Mirror compile: 'probe ^''two''' into: Scratch classSide: false. Scratch new probe";
  check_eval "class-side compile" "7"
    "Mirror compile: 'seven ^7' into: Scratch classSide: true. Scratch seven";
  check_eval "compiled methods appear in selectors" "true"
    "Scratch selectors includes: #probe"

let test_runtime_compile_many () =
  let vm' = Lazy.force vm in
  Vm.load_classes vm' "CLASS Scratch2 SUPER Object\n";
  (* grow the method dictionary past its initial capacity *)
  check_eval "dictionary growth" "20"
    {st|
| n |
1 to: 20 do: [:i |
    Mirror compile: 'm' , i printString , ' ^' , i printString
           into: Scratch2 classSide: false].
n := 0.
1 to: 20 do: [:i | n := n + 1].
Scratch2 selectors size
|st}

let test_decompile_tool () =
  check_eval "decompile produces source" "true"
    "((Point methodAt: #x) decompile includesSubstring: '^')";
  check_eval "decompiled selector heads the text" "true"
    "((Integer methodAt: #factorial) decompile startsWith: 'factorial')"

let test_inspector () =
  check_eval "inspector collects fields" "3"
    "(Inspector on: (Point x: 1 y: 2)) fieldCount";
  check_eval "inspector labels" "'x'"
    "(Inspector on: (Point x: 1 y: 2)) labels at: 2";
  check_eval "indexable fields listed" "true"
    "(Inspector on: #(9 8 7)) fieldCount = 4"

let test_transcript () =
  let vm' = Lazy.force vm in
  Buffer.clear vm'.Vm.shared.State.transcript;
  ignore (Vm.eval vm' "Transcript show: 'hello'; show: ' world'");
  Alcotest.(check string) "transcript captured" "hello world"
    (Vm.transcript vm')

(* Each VM keeps its own transcript: building another VM (a cluster
   node, an explorer execution) must not wipe a live one's. *)
let test_transcript_per_vm () =
  let a = Vm.create (Config.testing ()) in
  ignore (Vm.eval a "Transcript show: 'from A'");
  let b = Vm.create (Config.testing ()) in
  Alcotest.(check string) "A intact after B is created" "from A"
    (Vm.transcript a);
  ignore (Vm.eval b "Transcript show: 'from B'");
  Alcotest.(check string) "B sees only its own output" "from B"
    (Vm.transcript b);
  Alcotest.(check string) "A untouched by B's output" "from A"
    (Vm.transcript a)

let test_display () =
  let vm' = Lazy.force vm in
  let before = Devices.display_commands vm'.Vm.shared.State.display in
  ignore (Vm.eval vm' "1 to: 5 do: [:i | Display drawCommand: i]");
  Alcotest.(check int) "display commands flowed" (before + 5)
    (Devices.display_commands vm'.Vm.shared.State.display)

let test_contexts_visible () =
  (* the exposure the paper worries about: contexts and the scheduler are
     plain objects *)
  check_eval "a block is a BlockContext" "BlockContext" "[1] class";
  check_eval "block home method is a CompiledMethod" "true"
    "[1] method class == CompiledMethod";
  check_eval "scheduler is an object" "ProcessorScheduler" "Processor class"

let test_character_table () =
  check_eval "characters are unique" "true" "(65 asCharacter) == $A";
  check_eval "character value" "97" "$a asInteger";
  check_eval "character class method" "$z" "Character value: 122";
  check_eval "case conversion" "$A" "$a asUppercase";
  check_eval "isVowel" "true" "$e isVowel";
  check_eval "isDigit" "false" "$e isDigit"

(* --- recycled heap memory --- *)

(* [Heap.release] zeroes only [0, old.ptr) and new space, so every way a
   heap writes memory must leave old space above [old.ptr] zero:
   scavenges, tenuring, a major cycle whose holes are reused, and a
   restore that lowers [old.ptr] over tenured churn.  After all of that
   the next create of the same geometry gets the very same array, every
   word zero.  A dead heap of the same length could join the pool at any
   allocation, so the test drains earlier tests' dead heaps into the pool
   first and uses geometries no other test uses. *)
let test_release_recycles_zeroed_memory () =
  Gc.full_major ();
  let config =
    { (Config.testing ()) with
      Config.old_words = 300_000;
      eden_words = 2048;
      survivor_words = 1024;
      tenure_age = 1;
      major_enabled = true }
  in
  let vm = Vm.create config in
  let h = vm.Vm.heap in
  let boot = Snapshot.capture h ~fingerprint:0 ~entries:0 ~registers:[] in
  let churn =
    "| keep | keep := Array new: 200.\n\
     1 to: 6000 do: [:i | keep at: i \\\\ 200 + 1 put: (Array new: 8)].\n\
     0"
  in
  ignore (Vm.eval vm churn);
  (match vm.Vm.major with
   | Some mj -> ignore (Major.finish_cycle mj vm.Vm.shared.State.cm)
   | None -> Alcotest.fail "collector not configured");
  ignore (Vm.eval vm churn);
  check_bool "scavenged" true (Heap.scavenge_count h > 0);
  check_bool "tenured" true (Heap.tenured_words_total h > 0);
  check_bool "reused swept holes" true (Heap.free_list_hits h > 0);
  let high = h.Heap.old.Heap.ptr in
  ignore (Snapshot.restore boot h);
  check_bool "restore lowered old.ptr" true (h.Heap.old.Heap.ptr < high);
  let mem = h.Heap.mem in
  Heap.release h;
  let create ?(old_words = config.Config.old_words) () =
    Heap.create ~old_words ~eden_words:config.Config.eden_words
      ~survivor_words:config.Config.survivor_words ()
  in
  let again = create () in
  check_bool "same geometry reuses the array" true (again.Heap.mem == mem);
  check_bool "every word zero" true (Array.for_all (fun w -> w = 0) mem);
  Heap.release again;
  let other = create ~old_words:(config.Config.old_words + 1024) () in
  check_bool "another geometry allocates afresh" false (other.Heap.mem == mem);
  check_bool "the pool keeps it for its own geometry" true
    ((create ()).Heap.mem == mem)

(* A heap released twice would pool its array twice, and two later
   heaps would share one memory with no error.  Every second release
   must raise and pool nothing: six releases of one geometry leave the
   pool's four newest arrays, each handed out once.  The six new heaps
   stay live until the end, so their finalisers cannot pool an array
   the test still compares; the pool is drained first, as above. *)
let test_release_twice_refused () =
  Gc.full_major ();
  let create () =
    Heap.create ~old_words:4000 ~eden_words:1000 ~survivor_words:500 ()
  in
  let released = List.init 6 (fun _ -> create ()) in
  List.iter Heap.release released;
  List.iter
    (fun h ->
      Alcotest.check_raises "a second release"
        (Invalid_argument "Heap.release: heap already released") (fun () ->
          Heap.release h))
    released;
  let heaps = List.init 6 (fun _ -> create ()) in
  let again = List.map (fun h -> h.Heap.mem) heaps in
  let pooled =
    List.filter
      (fun m -> List.exists (fun h -> h.Heap.mem == m) released)
      again
  in
  Alcotest.(check int) "the pool kept four arrays" 4 (List.length pooled);
  check_bool "the newest array comes first" true
    (List.hd again == (List.nth released 5).Heap.mem);
  List.iteri
    (fun i m ->
      List.iteri
        (fun j m' ->
          if i < j && m == m' then
            Alcotest.failf "creates %d and %d got one array" i j)
        again)
    again;
  List.iter Heap.release heaps

(* --- recycling dropped heaps --- *)

(* Geometries (old, eden, survivor words) that no other test uses, so
   only this property's heaps reach the pool in their lengths. *)
let recycle_geometries = [| (3000, 512, 128); (5000, 256, 256) |]

(* The pool's capacity, as heap.mli documents it. *)
let pool_limit = 4

let length_of g =
  let old, eden, surv = recycle_geometries.(g) in
  2 + old + eden + (2 * surv)

type recycle_op =
  | Create of int  (** a heap of this geometry *)
  | Drop of int  (** forget the n-th live heap (mod count), no release *)
  | Release of int
  | Scribble of int  (** write old and new space of the n-th live heap *)
  | Full_major

let recycle_op_print = function
  | Create g -> Printf.sprintf "Create %d" g
  | Drop i -> Printf.sprintf "Drop %d" i
  | Release i -> Printf.sprintf "Release %d" i
  | Scribble i -> Printf.sprintf "Scribble %d" i
  | Full_major -> "Full_major"

let recycle_ops =
  let open QCheck.Gen in
  let live = int_bound 7 in
  list_size (int_range 1 24)
    (frequency
       [ (4, map (fun g -> Create g) (int_bound 1));
         (2, map (fun i -> Drop i) live);
         (2, map (fun i -> Release i) live);
         (3, map (fun i -> Scribble i) live);
         (1, return Full_major) ])

(* Nonzero words in both ranges a heap can write: an old-space object
   past the bump pointer's start and an eden object. *)
let scribble h =
  let cls = Oop.of_addr 2 in
  if Heap.region_avail h.Heap.old >= 6 then begin
    let o = Heap.alloc_old h ~slots:4 ~raw:true ~cls () in
    for i = 0 to 3 do Heap.set_raw h o i (i + 1) done
  end;
  if Heap.eden_avail h ~vp:0 >= 6 then begin
    let o = Heap.alloc_new h ~vp:0 ~slots:4 ~raw:true ~cls () in
    for i = 0 to 3 do Heap.set_raw h o i (i + 7) done
  end

let create_geometry g =
  let old_words, eden_words, survivor_words = recycle_geometries.(g) in
  Heap.create ~old_words ~eden_words ~survivor_words ()

(* The model: [seen] is every array this case was handed (arrays only,
   never their heaps, so holding them keeps no heap alive); [pooled] the
   ones that must be in the pool (released, or dropped before the last
   [Gc.full_major]); [pending] the ones dropped since, pooled or not.
   While this case has seen at most four arrays the pool cannot have
   dropped one of them, so a create must take a pooled array of its
   length whenever [pooled] holds one. *)
let recycle_case ops =
  Gc.full_major ();
  let live = ref [] and seen = ref [] and pooled = ref [] and pending = ref [] in
  let without m = List.filter (fun m' -> m' != m) in
  let mine l = List.exists (fun m -> m == l) in
  let pick i f =
    match !live with
    | [] -> ()
    | hs ->
        let h = List.nth hs (i mod List.length hs) in
        f h
  in
  let forget h = live := List.filter (fun h' -> h' != h) !live in
  let create g =
    let exact = List.length !seen <= pool_limit in
    let h = create_geometry g in
    let m = h.Heap.mem in
    if List.exists (fun h' -> h'.Heap.mem == m) !live then
      QCheck.Test.fail_report "two live heaps share one array";
    if not (Array.for_all (fun w -> w = 0) m) then
      QCheck.Test.fail_report "a created heap's array is not all zero";
    let len = length_of g in
    let of_len = List.filter (fun a -> Array.length a = len) in
    if exact && of_len !pooled <> [] && not (mine m (!pooled @ !pending))
    then
      QCheck.Test.fail_reportf
        "geometry %d allocated afresh while the pool held %d of its arrays"
        g (List.length (of_len !pooled));
    if not (mine m !seen) then seen := m :: !seen;
    pooled := without m !pooled;
    pending := without m !pending;
    live := h :: !live
  in
  List.iter
    (function
      | Create g -> create g
      | Drop i ->
          pick i (fun h ->
              forget h;
              pending := h.Heap.mem :: !pending)
      | Release i ->
          pick i (fun h ->
              forget h;
              Heap.release h;
              pooled := h.Heap.mem :: !pooled)
      | Scribble i -> pick i scribble
      | Full_major ->
          Gc.full_major ();
          pooled := !pending @ !pooled;
          pending := [])
    ops;
  (* Drop everything: after a full major every array this case saw is
     back in the pool, zeroed, and each comes out once. *)
  List.iter (fun h -> pending := h.Heap.mem :: !pending) !live;
  live := [];
  Gc.full_major ();
  if List.length !seen <= pool_limit then begin
    let back =
      List.map
        (fun m ->
          let g = if Array.length m = length_of 0 then 0 else 1 in
          create_geometry g)
        !seen
    in
    List.iter
      (fun m ->
        if not (List.exists (fun h -> h.Heap.mem == m) back) then
          QCheck.Test.fail_report "a dropped heap's array was not handed back")
      !seen;
    List.iter Heap.release back
  end;
  true

let prop_recycling =
  QCheck.Test.make ~name:"dropped heaps come back zeroed, once each"
    ~count:100
    (QCheck.make ~print:(QCheck.Print.list recycle_op_print) recycle_ops)
    recycle_case

(* A VM whose doIt failed is dropped like any other: after a full major
   its array is pooled and zeroed, though old space was filled to its
   limit.  [@inline never] keeps the VM out of the caller's frame. *)
let[@inline never] fill_and_drop config =
  let vm = Vm.create config in
  check_bool "filling old space raises Image_full" true
    (try
       ignore
         (Vm.eval vm
            "| keep | keep := OrderedCollection new. 1 to: 100000 do: [:i | keep add: (Array new: 64)]. 0");
       false
     with Heap.Image_full _ -> true);
  let h = vm.Vm.heap in
  check_bool "old space is nearly full" true (Heap.region_avail h.Heap.old < 100);
  h.Heap.mem

let test_failed_vm_recycled () =
  Gc.full_major ();
  let config = { (Config.testing ()) with Config.old_words = 70_003 } in
  let mem = fill_and_drop config in
  Gc.full_major ();
  let h =
    Heap.create ~old_words:config.Config.old_words
      ~eden_words:config.Config.eden_words
      ~survivor_words:config.Config.survivor_words ()
  in
  check_bool "the dropped VM's array comes back" true (h.Heap.mem == mem);
  check_bool "every word zero" true (Array.for_all (fun w -> w = 0) mem);
  Heap.release h

(* --- booting from the cached kernel image --- *)

(* A fresh heap of [config]'s geometry, as [Vm.create] builds it. *)
let fresh_heap (c : Config.t) =
  let policy =
    if not c.Config.locks_enabled then Heap.Unlocked
    else
      match c.Config.allocation with
      | Config.Alloc_serialized -> Heap.Shared_locked
      | Config.Alloc_replicated_eden -> Heap.Replicated_eden
  in
  Heap.create ~policy ~processors:c.Config.processors
    ~tenure_age:c.Config.tenure_age ~old_words:c.Config.old_words
    ~eden_words:c.Config.eden_words ~survivor_words:c.Config.survivor_words ()

let boot_geometries =
  let small_major =
    { (Config.testing ()) with
      Config.major_enabled = true;
      eden_words = 2048;
      survivor_words = 1024;
      tenure_age = 1;
      old_words = 72_000;
      major_budget = 2_000 }
  in
  [ ("BS, 1 VP", Config.baseline_bs ());
    ("MS, 5 VPs, replicated eden",
     { (Config.ms ()) with
       Config.allocation = Config.Alloc_replicated_eden });
    ("MS, 64 VPs", Config.ms ~processors:64 ());
    ("stealing", { (Config.ms ()) with Config.scheduler = Config.Sched_stealing });
    ("small-heap major", small_major) ]

(* A table's entries in its iteration order: the order
   [Universe.iter_roots] hands them to the major collector. *)
let table_order t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []

let first_difference a b =
  let n = Int.min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then if Array.length a = Array.length b then None else Some n
    else if a.(i) <> b.(i) then Some i
    else go (i + 1)
  in
  go 0

(* [booted] must equal [compiled] in everything the bootstrap writes, and
   in every other counter a fresh heap starts with. *)
let check_same_boot name (booted : Universe.t) (compiled : Universe.t) =
  let hb = booted.Universe.heap and hc = compiled.Universe.heap in
  let ints what f = Alcotest.(check int) (name ^ ": " ^ what) (f hc) (f hb) in
  Alcotest.(check (option int)) (name ^ ": first differing word") None
    (first_difference hc.Heap.mem hb.Heap.mem);
  List.iter
    (fun (what, f) -> ints what f)
    [ ("old.ptr", fun h -> h.Heap.old.Heap.ptr);
      ("eden.ptr", fun h -> h.Heap.eden.Heap.ptr);
      ("survivor used", Heap.survivor_used);
      ("allocations", Heap.allocations);
      ("words allocated", Heap.words_allocated);
      ("nil", fun h -> h.Heap.nil);
      ("MethodContext class", fun h -> h.Heap.method_ctx_class);
      ("BlockContext class", fun h -> h.Heap.block_ctx_class);
      ("entry table", Heap.remembered_count);
      ("free words", Heap.free_words);
      ("free-list hits", Heap.free_list_hits);
      ("free reused words", Heap.free_reused_words);
      ("scavenges", Heap.scavenge_count);
      ("words copied", Heap.words_copied_total);
      ("words tenured", Heap.tenured_words_total) ];
  check_bool (name ^ ": the character table is the only root") true
    (match hb.Heap.array_roots, hb.Heap.roots with
     | [ t ], [] -> t == booted.Universe.char_table
     | _ -> false);
  Alcotest.(check (list int)) (name ^ ": eden slices")
    (Array.to_list (Array.map (fun r -> r.Heap.ptr) hc.Heap.eden_regions))
    (Array.to_list (Array.map (fun r -> r.Heap.ptr) hb.Heap.eden_regions));
  let oops u =
    Universe.[ u.nil; u.true_; u.false_; u.scheduler ]
  in
  Alcotest.(check (list int)) (name ^ ": well-known oops") (oops compiled)
    (oops booted);
  check_bool (name ^ ": classes record") true
    (booted.Universe.classes = compiled.Universe.classes);
  check_bool (name ^ ": character table") true
    (booted.Universe.char_table = compiled.Universe.char_table);
  let entries = Alcotest.(list (pair string int)) in
  Alcotest.check entries (name ^ ": symbol table order")
    (table_order compiled.Universe.symtab) (table_order booted.Universe.symtab);
  Alcotest.check entries (name ^ ": global table order")
    (table_order compiled.Universe.globals)
    (table_order booted.Universe.globals)

(* A heap booted from the image, in every geometry, is word for word the
   heap a from-source compile builds.  (It is compared before [Vm.create]
   wires the rest of a VM, which writes into the heap on some
   configurations.)  Both heaps go back to the pool afterwards, so later
   geometries also boot into recycled memory. *)
let test_boot_matches_compile () =
  ignore (Lazy.force vm);
  List.iter
    (fun (name, config) ->
      let booted = Bootstrap.install (fresh_heap config) in
      let compiled = Bootstrap.compile (fresh_heap config) in
      check_same_boot name booted compiled;
      Heap.release compiled.Universe.heap;
      Heap.release booted.Universe.heap)
    boot_geometries

(* What one booted VM adds to its universe — a symbol, a global, a class
   — stays its own: the next boot still equals a fresh compile. *)
let test_boot_isolation () =
  ignore (Lazy.force vm);
  let config = Config.testing () in
  let first = Vm.create config in
  let u = first.Vm.u in
  ignore (Universe.intern u "bootIsolationSymbol");
  Universe.set_global u "BootIsolationGlobal" (Universe.new_string u "x");
  Vm.load_classes first "CLASS BootIsolationClass SUPER Object\n";
  check_bool "the first VM defined its class" true
    (Universe.find_class u "BootIsolationClass" <> None);
  let booted = Bootstrap.install (fresh_heap config) in
  let compiled = Bootstrap.compile (fresh_heap config) in
  check_same_boot "second boot" booted compiled;
  check_bool "no symbol leaked" false
    (Universe.is_interned booted "bootIsolationSymbol");
  check_bool "no global leaked" true
    (Universe.get_global booted "BootIsolationGlobal" = None);
  check_bool "no class leaked" true
    (Universe.find_class booted "BootIsolationClass" = None)

let test_boot_refusals () =
  let config = Config.testing () in
  let h = fresh_heap config in
  ignore (Bootstrap.install h);
  check_bool "a heap that has allocated is refused" true
    (try ignore (Bootstrap.install h); false
     with Invalid_argument _ -> true);
  let tiny = { config with Config.old_words = 4096 } in
  let exhausted f =
    try ignore (f (fresh_heap tiny)); false
    with Heap.Image_full "old space exhausted" -> true
  in
  check_bool "compiling into a too-small old space fails" true
    (exhausted Bootstrap.compile);
  check_bool "booting into a too-small old space fails alike" true
    (exhausted Bootstrap.install)

(* [Hashtbl.randomize] makes every later [Hashtbl.create] pick a random
   hash seed, as OCAMLRUNPARAM=R does from the start.  The universe's
   tables must not follow it: the major collector marks their entries,
   and the explorer lists its stable roots, in table order.  So a booted
   VM's tables, and its stable roots, must come out in the order of a
   from-source compile made after the switch.  Run last: the switch
   cannot be undone. *)
let test_boot_ignores_hash_randomization () =
  ignore (Lazy.force vm);
  Hashtbl.randomize ();
  let config = Config.testing () in
  let booted = Vm.create config in
  let compiled = Bootstrap.compile (fresh_heap config) in
  let entries = Alcotest.(list (pair string int)) in
  Alcotest.check entries "symbol table order"
    (table_order compiled.Universe.symtab)
    (table_order booted.Vm.u.Universe.symtab);
  Alcotest.check entries "global table order"
    (table_order compiled.Universe.globals)
    (table_order booted.Vm.u.Universe.globals);
  let specials u = Universe.[ u.nil; u.true_; u.false_; u.scheduler ] in
  Alcotest.(check (list int)) "explorer stable roots"
    (specials compiled
     @ Hashtbl.fold (fun _ a acc -> a :: acc) compiled.Universe.globals [])
    (Explorer.stable_roots booted)

(* The image's words are what a compile writes into old space, and its
   digest is FNV-1a over them.  Run first, before any VM exists, this
   also covers building the image on a heap of its own. *)
let test_image_words () =
  let words = Bootstrap.image_words () in
  let compiled = Bootstrap.compile (fresh_heap (Config.testing ())) in
  let h = compiled.Universe.heap in
  check_bool "the words a compile writes" true
    (words
     = Array.sub h.Heap.mem h.Heap.old.Heap.base (Heap.region_used h.Heap.old));
  Alcotest.(check int) "digest over the words"
    (Array.fold_left
       (fun d w -> ((d lxor w) * 0x01000193) land max_int)
       0x811C9DC5 words)
    (Bootstrap.image_digest ());
  let booted = Vm.create (Config.testing ()) in
  check_bool "a boot copies them" true
    (words
     = Array.sub booted.Vm.heap.Heap.mem booted.Vm.heap.Heap.old.Heap.base
         (Array.length words))

let () =
  Alcotest.run "image"
    [ ("image words",
       [ Alcotest.test_case "built on first use" `Quick test_image_words ]);
      ("kernel",
       [ Alcotest.test_case "classes present" `Quick test_kernel_classes_present;
         Alcotest.test_case "hierarchy" `Quick test_hierarchy_shape;
         Alcotest.test_case "characters" `Quick test_character_table ]);
      ("reflection",
       [ Alcotest.test_case "class reflection" `Quick test_class_reflection;
         Alcotest.test_case "allClasses" `Quick test_all_classes;
         Alcotest.test_case "contexts visible" `Quick test_contexts_visible ]);
      ("tools",
       [ Alcotest.test_case "definitions" `Quick test_definition_string;
         Alcotest.test_case "hierarchy printing" `Quick test_hierarchy_string;
         Alcotest.test_case "implementors/senders" `Quick test_implementors_senders;
         Alcotest.test_case "runtime compile" `Quick test_runtime_compile;
         Alcotest.test_case "dictionary growth" `Quick test_runtime_compile_many;
         Alcotest.test_case "decompile" `Quick test_decompile_tool;
         Alcotest.test_case "inspector" `Quick test_inspector ]);
      ("io",
       [ Alcotest.test_case "transcript" `Quick test_transcript;
         Alcotest.test_case "transcript per VM" `Quick test_transcript_per_vm;
         Alcotest.test_case "display" `Quick test_display ]);
      ("memory",
       [ Alcotest.test_case "release recycles zeroed memory" `Quick
           test_release_recycles_zeroed_memory;
         Alcotest.test_case "a second release is refused" `Quick
           test_release_twice_refused;
         QCheck_alcotest.to_alcotest prop_recycling;
         Alcotest.test_case "a VM dropped after Image_full comes back zeroed"
           `Quick test_failed_vm_recycled ]);
      ("boot",
       [ Alcotest.test_case "matches a compile in every geometry" `Quick
           test_boot_matches_compile;
         Alcotest.test_case "booted VMs share nothing" `Quick
           test_boot_isolation;
         Alcotest.test_case "refusals" `Quick test_boot_refusals;
         Alcotest.test_case "ignores hash randomization" `Quick
           test_boot_ignores_hash_randomization ]) ]
