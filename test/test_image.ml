(* Tests for the bootstrap image: the kernel class hierarchy, reflection,
   the programming-environment tools (browse, search, compile, decompile,
   inspect), the I/O service objects, and the recycling of a released
   heap's memory. *)

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
   word zero. *)
let test_release_recycles_zeroed_memory () =
  let config =
    { (Config.testing ()) with
      Config.eden_words = 2048;
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
  check_bool "the spare waits for its own geometry" true
    ((create ()).Heap.mem == mem)

let () =
  Alcotest.run "image"
    [ ("kernel",
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
           test_release_recycles_zeroed_memory ]) ]
