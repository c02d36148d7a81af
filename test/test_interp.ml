(* Tests for the interpreter: evaluation semantics end to end on a
   bootstrapped image (baseline configuration, uniform costs). *)

let vm = lazy (Vm.create (Config.testing ()))

let ev src = Vm.eval_to_string (Lazy.force vm) src

let check_eval name expected src = Alcotest.(check string) name expected (ev src)

let raises_vm_error src () =
  Alcotest.(check bool) ("raises: " ^ src) true
    (try ignore (ev src); false with
     | State.Vm_error _ | Interp.Does_not_understand _ | Interp.Must_be_boolean ->
         true)

(* --- arithmetic --- *)

let test_arithmetic () =
  check_eval "add" "7" "3 + 4";
  check_eval "subtract" "-1" "3 - 4";
  check_eval "multiply" "12" "3 * 4";
  check_eval "floor division" "-2" "-7 // 4";
  check_eval "floor modulo" "1" "-7 \\\\ 4";
  check_eval "quotient" "-1" "-7 / 4";
  check_eval "bitAnd" "4" "12 bitAnd: 6";
  check_eval "bitOr" "14" "12 bitOr: 6";
  check_eval "bitXor" "10" "12 bitXor: 6";
  check_eval "bitShift left" "48" "12 bitShift: 2";
  check_eval "bitShift right" "3" "12 bitShift: -2";
  check_eval "comparison chain" "true" "1 < 2 and: [2 <= 2 and: [3 > 2]]";
  check_eval "max" "9" "4 max: 9";
  check_eval "abs" "5" "-5 abs";
  check_eval "negated" "-3" "3 negated";
  check_eval "gcd" "6" "54 gcd: 24";
  check_eval "factorial" "479001600" "12 factorial";
  check_eval "even odd" "true" "4 even and: [3 odd]"

(* The special-selector fast path must apply the same SmallInteger range
   as primitives 1, 2 and 9: a result past it falls over to Float. *)
let test_small_overflow () =
  check_eval "multiply past max_small" "true"
    "| x | x := 1073741824 * 1073741824 * 2. x class == Float and: [x > 0]";
  check_eval "add past max_small" "true"
    "| x | x := 2305843009213693951 + 1. x class == Float and: [x > 0]";
  check_eval "subtract past min_small" "true"
    "| x | x := 0 - 2305843009213693951 - 2. x class == Float and: [x < 0]";
  check_eval "max_small itself stays small" "2305843009213693951"
    "1152921504606846975 * 2 + 1"

let test_floats () =
  check_eval "float add" "3.5" "1.25 + 2.25";
  check_eval "mixed add" "3.5" "1 + 2.5";
  check_eval "float multiply" "7.5" "2.5 * 3";
  check_eval "float compare" "true" "1.5 < 2";
  check_eval "truncated" "3" "3.9 truncated";
  check_eval "rounded" "4" "3.9 rounded";
  check_eval "asFloat" "1" "2 asFloat printString size"

(* Primitive 45 fails on a zero divisor of either sign, and on 0.0 / 0.0,
   so Float>>/ reports the division instead of answering an infinity or
   a NaN. *)
let test_float_division () =
  check_eval "float divide" "0.25" "1.0 / 4";
  check_eval "negative float divide" "-3" "1.5 / -0.5";
  List.iter
    (fun src ->
      Alcotest.(check string) src "Smalltalk error: float division by zero"
        (try ignore (ev src); "no error" with State.Vm_error msg -> msg))
    [ "1.0 / 0.0"; "1.0 / -0.0"; "0.0 / 0.0" ]

let test_integer_printing () =
  check_eval "zero" "'0'" "0 printString";
  check_eval "positive" "'12345'" "12345 printString";
  check_eval "negative" "'-42'" "-42 printString";
  check_eval "radix" "'FF'" "(255 printStringRadix: 16)"

(* --- objects, identity, equality --- *)

let test_identity () =
  check_eval "identical ints" "true" "3 == 3";
  check_eval "symbols interned" "true" "#foo == #foo";
  check_eval "strings not identical" "false" "'ab' == 'ab'";
  check_eval "strings equal" "true" "'ab' = 'ab'";
  check_eval "string/symbol distinct" "true" "('ab' == 'ab' asSymbol) not";
  check_eval "nil isNil" "true" "nil isNil";
  check_eval "object notNil" "true" "3 notNil";
  check_eval "ifNil on nil" "5" "nil ifNil: [5]";
  check_eval "ifNil on object" "3" "3 ifNil: [5]"

let test_classes () =
  check_eval "class of int" "SmallInteger" "3 class";
  check_eval "class of string" "String" "'x' class";
  check_eval "class of class" "Class" "Array class";
  check_eval "superclass chain" "Number" "Integer superclass";
  check_eval "isKindOf" "true" "3 isKindOf: Magnitude";
  check_eval "isKindOf false" "false" "3 isKindOf: Collection";
  check_eval "isMemberOf" "true" "3 isMemberOf: SmallInteger";
  check_eval "respondsTo" "true" "3 respondsTo: #factorial";
  check_eval "respondsTo false" "false" "3 respondsTo: #zork";
  check_eval "inheritsFrom" "true" "SmallInteger inheritsFrom: Object"

let test_instantiation () =
  check_eval "new instance has nil ivars" "true" "Point new x isNil";
  check_eval "point accessors" "'3@4'" "(Point x: 3 y: 4) printString";
  check_eval "point arithmetic" "'4@6'"
    "((Point x: 1 y: 2) + (Point x: 3 y: 4)) printString";
  check_eval "ivars via instVarAt:" "3" "(Point x: 3 y: 4) instVarAt: 1";
  check_eval "copy is shallow" "'3@9'"
    "| p q | p := Point x: 3 y: 4. q := p copy. q instVarAt: 2 put: 9. p instVarAt: 2 put: 4. q printString"

(* --- blocks and control flow --- *)

let test_blocks () =
  check_eval "value" "7" "[7] value";
  check_eval "value:" "8" "[:x | x + 1] value: 7";
  check_eval "two args" "12" "[:x :y | x * y] value: 3 value: 4";
  check_eval "three args" "6" "[:x :y :z | x + y + z] value: 1 value: 2 value: 3";
  check_eval "closure over temp" "15"
    "| a | a := 5. [:x | x + a] value: 10";
  check_eval "block mutates home temp" "6"
    "| a | a := 5. [a := a + 1] value. a";
  check_eval "block stored and reused" "10"
    "| b | b := [:x | x + 1]. (b value: 3) + (b value: 5)";
  check_eval "numArgs" "2" "[:x :y | x] numArgs";
  check_eval "dynamic whileTrue:" "10"
    "| i b | i := 0. b := [i < 10]. b whileTrue: [i := i + 1]. i"

let test_nonlocal_return () =
  (* detect: uses ^ inside a do: block *)
  check_eval "nonlocal return through do:" "4"
    "#(1 3 4 5) detect: [:x | x even]";
  check_eval "includes via nonlocal return" "true" "#(1 2 3) includes: 2"

let test_early_exit () =
  let vm = Lazy.force vm in
  Vm.load_classes vm
    {st|
CLASS EarlyExit SUPER Object
METHODS EarlyExit
find: n
    1 to: 100 do: [:i | i = n ifTrue: [^'found']].
    ^'missing'
!
|st};
  Alcotest.(check string) "early exit" "'found'" (ev "EarlyExit new find: 7");
  Alcotest.(check string) "fall through" "'missing'" (ev "EarlyExit new find: 200")

let test_conditionals () =
  check_eval "ifTrue taken" "1" "true ifTrue: [1]";
  check_eval "ifTrue skipped" "nil" "false ifTrue: [1]";
  check_eval "ifFalse" "2" "false ifFalse: [2]";
  check_eval "two-armed" "'yes'" "(3 < 4) ifTrue: ['yes'] ifFalse: ['no']";
  check_eval "ifFalse:ifTrue:" "'yes'" "(3 < 4) ifFalse: ['no'] ifTrue: ['yes']";
  check_eval "and short-circuits" "false" "false and: [1 zork]";
  check_eval "or short-circuits" "true" "true or: [1 zork]";
  check_eval "dynamic boolean send" "1" "| b | b := true. b ifTrue: [1] ifFalse: [2]"

let test_loops () =
  check_eval "whileTrue" "10" "| i | i := 0. [i < 10] whileTrue: [i := i + 1]. i";
  check_eval "whileFalse" "10" "| i | i := 0. [i >= 10] whileFalse: [i := i + 1]. i";
  check_eval "to:do:" "5050" "| s | s := 0. 1 to: 100 do: [:i | s := s + i]. s";
  check_eval "to:by:do: down" "2500"
    "| s | s := 0. 99 to: 1 by: -2 do: [:i | s := s + i]. s";
  check_eval "to:do: value is nil (documented deviation)" "nil"
    "1 to: 3 do: [:i | i]";
  check_eval "timesRepeat:" "8" "| n | n := 1. 3 timesRepeat: [n := n * 2]. n";
  check_eval "nested loops" "36"
    "| s | s := 0. 1 to: 3 do: [:i | 1 to: 3 do: [:j | s := s + (i * j)]]. s";
  check_eval "dynamic to:do: via Interval" "6"
    "| s | s := 0. (1 to: 3) do: [:i | s := s + i]. s"

(* --- strings and collections --- *)

let test_strings () =
  check_eval "concat" "'ab cd'" "'ab' , ' ' , 'cd'";
  check_eval "size" "5" "'hello' size";
  check_eval "at:" "$e" "'hello' at: 2";
  check_eval "at:put:" "'hallo'" "| s | s := 'hello' copy. s at: 2 put: $a. s";
  check_eval "comparison" "true" "'abc' < 'abd'";
  check_eval "uppercase" "'HELLO'" "'hello' asUppercase";
  check_eval "copyFrom" "'ell'" "('hello' copyFrom: 2 to: 4)";
  check_eval "indexOf sub" "3" "'ababc' indexOfSubCollection: 'abc'";
  check_eval "includesSubstring" "false" "'ababc' includesSubstring: 'abd'";
  check_eval "startsWith" "true" "'hello' startsWith: 'hel'";
  check_eval "reversed" "'olleh'" "'hello' reversed";
  check_eval "symbol round trip" "#foo" "'foo' asSymbol";
  check_eval "symbol asString" "'foo'" "#foo asString";
  check_eval "string hash equal" "true" "'abc' hash = 'abc' copy hash"

let test_arrays () =
  check_eval "literal array" "3" "#(10 20 30) size";
  check_eval "at:" "20" "#(10 20 30) at: 2";
  check_eval "with:with:" "2" "(Array with: 1 with: 2) size";
  check_eval "new: filled with nil" "true" "(Array new: 3) first isNil";
  check_eval "indexOf" "2" "#(5 6 7) indexOf: 6";
  check_eval "collect into Array" "true"
    "(#(1 2 3) asArray collect: [:x | x * x]) includes: 9";
  check_eval "inject" "10" "#(1 2 3 4) inject: 0 into: [:a :b | a + b]";
  check_eval "select count" "2" "(#(1 2 3 4) select: [:x | x even]) size";
  check_eval "reject" "2" "(#(1 2 3 4) reject: [:x | x even]) size";
  check_eval "concatenation" "5" "(#(1 2) , #(3 4 5)) size";
  check_eval "nested literal arrays" "2" "(#(1 (2 3)) at: 2) size"

let test_ordered_collections () =
  check_eval "add and size" "3"
    "| c | c := OrderedCollection new. c add: 1; add: 2; add: 3. c size";
  check_eval "addFirst" "9"
    "| c | c := OrderedCollection new. c add: 1. c addFirst: 9. c first";
  check_eval "removeFirst" "1"
    "| c | c := OrderedCollection new. c add: 1; add: 2. c removeFirst";
  check_eval "removeLast" "2"
    "| c | c := OrderedCollection new. c add: 1; add: 2. c removeLast";
  check_eval "grows past capacity" "100"
    "| c | c := OrderedCollection new. 1 to: 100 do: [:i | c add: i]. c size";
  check_eval "remove:ifAbsent:" "2"
    "| c | c := OrderedCollection new. c add: 1; add: 2; add: 3. c remove: 1 ifAbsent: [nil]. c size";
  check_eval "asArray" "3" "#(1 2 3) asOrderedCollection asArray size"

let test_dictionaries () =
  check_eval "at:put: and at:" "'one'"
    "| d | d := Dictionary new. d at: 1 put: 'one'. d at: 1";
  check_eval "at:ifAbsent:" "'none'"
    "| d | d := Dictionary new. d at: 9 ifAbsent: ['none']";
  check_eval "includesKey" "true"
    "| d | d := Dictionary new. d at: #k put: 2. d includesKey: #k";
  check_eval "overwrite" "'two'"
    "| d | d := Dictionary new. d at: 1 put: 'one'. d at: 1 put: 'two'. d at: 1";
  check_eval "growth" "50"
    "| d | d := Dictionary new. 1 to: 50 do: [:i | d at: i put: i * i]. d size";
  check_eval "removeKey" "0"
    "| d | d := Dictionary new. d at: 1 put: 2. d removeKey: 1 ifAbsent: [nil]. d size";
  check_eval "string keys compare by value" "'v'"
    "| d | d := Dictionary new. d at: 'k' put: 'v'. d at: 'k' copy";
  check_eval "keys" "2"
    "| d | d := Dictionary new. d at: 1 put: 0. d at: 2 put: 0. d keys size"

let test_sets_intervals_streams () =
  check_eval "set deduplicates" "2"
    "| s | s := Set new. s add: 1; add: 2; add: 1. s size";
  check_eval "interval size" "10" "(1 to: 10) size";
  check_eval "interval by" "5" "(1 to: 9 by: 2) size";
  check_eval "interval collect" "true" "((1 to: 3) collect: [:x | x * 2]) includes: 6";
  check_eval "read stream" "3"
    "| rs | rs := ReadStream on: #(3 4 5). rs next";
  check_eval "read stream upTo" "'ab'"
    "| rs | rs := ReadStream on: 'ab cd'. rs upTo: $ ";
  check_eval "write stream" "'xy3'"
    "| ws | ws := WriteStream on: (String new: 2). ws nextPutAll: 'xy'. ws print: 3. ws contents"

(* --- cascades, associations, super --- *)

let test_cascade_eval () =
  check_eval "cascade returns last" "2"
    "| c | c := OrderedCollection new. c add: 1; add: 2; size";
  check_eval "association" "'#a -> 2'" "(#a -> 2) printString"

let test_super () =
  let vm = Lazy.force vm in
  Vm.load_classes vm
    {st|
CLASS SuperBase SUPER Object
METHODS SuperBase
describe
    ^'base'
!
greet
    ^'hello ' , self describe
!
CLASS SuperSub SUPER SuperBase
METHODS SuperSub
describe
    ^'sub(' , super describe , ')'
!
CLASSMETHODS SuperSub
build
    ^super new
!
|st};
  Alcotest.(check string) "super chains" "'hello sub(base)'"
    (ev "SuperSub new greet");
  Alcotest.(check string) "class-side super" "'sub(base)'"
    (ev "SuperSub build describe")

(* --- errors --- *)

let test_errors () =
  raises_vm_error "1 zork" ();
  raises_vm_error "nil foo: 3" ();
  raises_vm_error "Object zork" ();
  raises_vm_error "#(1 2) at: 5" ();
  raises_vm_error "#(1 2) at: 0" ();
  raises_vm_error "1 // 0" ();
  raises_vm_error "3 ifTrue: [1]" ();     (* mustBeBoolean *)
  raises_vm_error "self error: 'boom'" ();
  raises_vm_error "[:x | x] value" ()     (* block arg count mismatch *)

let test_deep_recursion () =
  let vm = Lazy.force vm in
  Vm.load_classes vm
    {st|
CLASS DeepRec SUPER Object
METHODS DeepRec
depth: n
    n = 0 ifTrue: [^0].
    ^1 + (self depth: n - 1)
!
|st};
  Alcotest.(check string) "deep method recursion" "400" (ev "DeepRec new depth: 400")

let test_stats_visible () =
  let vm = Lazy.force vm in
  ignore (Vm.eval vm "1 to: 100 do: [:i | i printString]");
  let st = vm.Vm.states.(0) in
  Alcotest.(check bool) "sends counted" true (st.State.sends > 0);
  Alcotest.(check bool) "cache hits accumulate" true
    (Method_cache.hits st.State.mcache > Method_cache.misses st.State.mcache);
  Alcotest.(check bool) "free contexts get reused" true
    (Free_contexts.reuses st.State.free_ctxs > 0)

let () =
  Alcotest.run "interp"
    [ ("numbers",
       [ Alcotest.test_case "arithmetic" `Quick test_arithmetic;
         Alcotest.test_case "smallinteger overflow" `Quick test_small_overflow;
         Alcotest.test_case "floats" `Quick test_floats;
         Alcotest.test_case "float division" `Quick test_float_division;
         Alcotest.test_case "printing" `Quick test_integer_printing ]);
      ("objects",
       [ Alcotest.test_case "identity" `Quick test_identity;
         Alcotest.test_case "classes" `Quick test_classes;
         Alcotest.test_case "instantiation" `Quick test_instantiation ]);
      ("blocks",
       [ Alcotest.test_case "values" `Quick test_blocks;
         Alcotest.test_case "nonlocal return" `Quick test_nonlocal_return;
         Alcotest.test_case "early exit" `Quick test_early_exit;
         Alcotest.test_case "conditionals" `Quick test_conditionals;
         Alcotest.test_case "loops" `Quick test_loops ]);
      ("collections",
       [ Alcotest.test_case "strings" `Quick test_strings;
         Alcotest.test_case "arrays" `Quick test_arrays;
         Alcotest.test_case "ordered" `Quick test_ordered_collections;
         Alcotest.test_case "dictionaries" `Quick test_dictionaries;
         Alcotest.test_case "sets/intervals/streams" `Quick test_sets_intervals_streams ]);
      ("messages",
       [ Alcotest.test_case "cascades" `Quick test_cascade_eval;
         Alcotest.test_case "super" `Quick test_super;
         Alcotest.test_case "errors" `Quick test_errors;
         Alcotest.test_case "deep recursion" `Quick test_deep_recursion;
         Alcotest.test_case "statistics" `Quick test_stats_visible ]) ]
