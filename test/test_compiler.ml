(* Tests for the Smalltalk compiler: lexer, parser, code generation
   (including the inlined control-flow forms) and the decompiler. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- lexer --- *)

let toks src = Array.to_list (Lexer.tokenize src)

let test_lexer_basics () =
  (match toks "foo at: 3" with
   | [ Lexer.Ident "foo"; Lexer.Keyword "at:"; Lexer.Int 3; Lexer.Eof ] -> ()
   | _ -> Alcotest.fail "basic tokens");
  (match toks "x := y + -2" with
   | [ Lexer.Ident "x"; Lexer.Assign; Lexer.Ident "y"; Lexer.Binary "+";
       Lexer.Binary "-"; Lexer.Int 2; Lexer.Eof ] -> ()
   | _ -> Alcotest.fail "assignment and operators")

let test_lexer_literals () =
  (match toks "16rFF 2r101 3.5 1.5e2 $a 'it''s' #foo #at:put: #( 1 2 )" with
   | [ Lexer.Int 255; Lexer.Int 5; Lexer.Float f1; Lexer.Float f2;
       Lexer.Char 'a'; Lexer.Str "it's"; Lexer.Sym "foo"; Lexer.Sym "at:put:";
       Lexer.Hash_paren; Lexer.Int 1; Lexer.Int 2; Lexer.Rparen; Lexer.Eof ] ->
       Alcotest.(check (float 1e-9)) "float" 3.5 f1;
       Alcotest.(check (float 1e-9)) "exponent" 150.0 f2
   | _ -> Alcotest.fail "literal tokens")

let test_lexer_comments () =
  (match toks "1 \"a comment\" + 2" with
   | [ Lexer.Int 1; Lexer.Binary "+"; Lexer.Int 2; Lexer.Eof ] -> ()
   | _ -> Alcotest.fail "comments are skipped")

let test_lexer_binary_selectors () =
  (match toks "a <= b // c \\\\ d" with
   | [ Lexer.Ident "a"; Lexer.Binary "<="; Lexer.Ident "b"; Lexer.Binary "//";
       Lexer.Ident "c"; Lexer.Binary "\\\\"; Lexer.Ident "d"; Lexer.Eof ] -> ()
   | _ -> Alcotest.fail "two-char binary selectors")

let test_lexer_errors () =
  check_bool "unterminated string raises" true
    (try ignore (Lexer.tokenize "'abc"); false with Lexer.Error _ -> true);
  check_bool "bang is reserved" true
    (try ignore (Lexer.tokenize "a ! b"); false with Lexer.Error _ -> true)

(* Integer literals past SmallInteger range are syntax errors, never a
   silent wrap or an escaping [Failure]; a float's integer part may be as
   long as it likes. *)
let test_lexer_integer_range () =
  let rejects name src =
    check_bool name true
      (try ignore (Lexer.tokenize src); false with Lexer.Error _ -> true)
  in
  (match toks "2305843009213693951" with
   | [ Lexer.Int n; Lexer.Eof ] -> check "max_small lexes" Oop.max_small n
   | _ -> Alcotest.fail "max_small literal");
  rejects "max_small + 1" "2305843009213693952";
  rejects "past max_int" "123456789012345678901";
  rejects "radix overflow" "16r7FFFFFFFFFFFFFFF";
  rejects "huge radix" "99999999999999999999r1";
  (match toks "16r1FFFFFFFFFFFFFFF" with
   | [ Lexer.Int n; Lexer.Eof ] -> check "radix max_small" Oop.max_small n
   | _ -> Alcotest.fail "radix max_small literal");
  (match toks "123456789012345678901.5 1.5e-2" with
   | [ Lexer.Float f; Lexer.Float g; Lexer.Eof ] ->
       Alcotest.(check (float 1e6)) "long integer part" 123456789012345678901.5 f;
       Alcotest.(check (float 1e-12)) "negative exponent" 0.015 g
   | _ -> Alcotest.fail "long float literal");
  check_bool "compiling an oversized literal is a syntax error" true
    (try ignore (Parser.parse_do_it "^ 99999999999999999999 + 1"); false
     with Lexer.Error _ | Parser.Error _ -> true)

(* --- parser --- *)

let parse_expr src =
  match (Parser.parse_do_it src).Ast.body with
  | [ Ast.Return e ] -> e
  | [ Ast.Expr e ] -> e
  | _ -> Alcotest.fail "expected a single expression"

let test_parser_precedence () =
  (* keyword < binary < unary *)
  match parse_expr "a foo: b bar + c baz" with
  | Ast.Message { selector = "foo:"; args = [ arg ]; _ } ->
      (match arg with
       | Ast.Message { selector = "+"; receiver = Ast.Message { selector = "bar"; _ }; args = [ Ast.Message { selector = "baz"; _ } ] } -> ()
       | _ -> Alcotest.fail "binary argument shape")
  | _ -> Alcotest.fail "keyword send shape"

let test_parser_multi_keyword () =
  match parse_expr "d at: 1 put: 2" with
  | Ast.Message { selector = "at:put:"; args = [ _; _ ]; _ } -> ()
  | _ -> Alcotest.fail "multi-keyword selector glued"

let test_parser_cascade () =
  match parse_expr "ws nextPutAll: 'a'; tab; print: 3" with
  | Ast.Cascade { receiver = Ast.Var "ws"; messages } ->
      check "three messages" 3 (List.length messages);
      check_str "first" "nextPutAll:" (fst (List.nth messages 0));
      check_str "second" "tab" (fst (List.nth messages 1));
      check_str "third" "print:" (fst (List.nth messages 2))
  | _ -> Alcotest.fail "cascade shape"

let test_parser_block () =
  match parse_expr "[:x :y | | t | t := x + y. t]" with
  | Ast.Block { params = [ "x"; "y" ]; temps = [ "t" ]; body } ->
      check "two statements" 2 (List.length body)
  | _ -> Alcotest.fail "block shape"

let test_parser_method () =
  let m = Parser.parse_method "at: i put: v\n  <primitive: 61>\n  | t |\n  t := i.\n  ^v" in
  check_str "selector" "at:put:" m.Ast.selector;
  Alcotest.(check (list string)) "params" [ "i"; "v" ] m.Ast.params;
  Alcotest.(check (list string)) "temps" [ "t" ] m.Ast.temps;
  Alcotest.(check (option int)) "primitive" (Some 61) m.Ast.primitive;
  check "statements" 2 (List.length m.Ast.body)

let test_parser_negative_literal () =
  match parse_expr "-5" with
  | Ast.Lit (Ast.Lit_int (-5)) -> ()
  | _ -> Alcotest.fail "negative literal"

let test_parser_literal_array () =
  match parse_expr "#(1 $a 'x' sym at:put: (2 3) nil true)" with
  | Ast.Lit (Ast.Lit_array
      [ Ast.Lit_int 1; Ast.Lit_char 'a'; Ast.Lit_string "x";
        Ast.Lit_symbol "sym"; Ast.Lit_symbol "at:put:";
        Ast.Lit_array [ Ast.Lit_int 2; Ast.Lit_int 3 ];
        Ast.Lit_nil; Ast.Lit_true ]) -> ()
  | _ -> Alcotest.fail "literal array contents"

let test_parser_errors () =
  let fails src =
    try ignore (Parser.parse_do_it src); false with
    | Parser.Error _ | Lexer.Error _ -> true
  in
  check_bool "unclosed paren" true (fails "(1 + 2");
  check_bool "statements after return" true (fails "^1. 2");
  check_bool "missing cascade message" true (fails "a foo; ");
  check_bool "stray bracket" true (fails "]")

let test_parser_bar_binary () =
  match parse_expr "(a = 1) | (b = 2)" with
  | Ast.Message { selector = "|"; _ } -> ()
  | _ -> Alcotest.fail "'|' as a binary selector"

(* --- code generation (against a bootstrapped universe) --- *)

let vm = lazy (Vm.create (Config.testing ()))

let compile_do_it src =
  let vm = Lazy.force vm in
  Codegen.compile_do_it vm.Vm.u src

let decode_all vm meth =
  Method_mirror.bytecode_array vm.Vm.u meth

let count_sends code =
  Array.fold_left
    (fun n op -> match op with Opcode.Send _ | Opcode.Super_send _ -> n + 1 | _ -> n)
    0 code

let count_blocks code =
  Array.fold_left
    (fun n op -> match op with Opcode.Push_block _ -> n + 1 | _ -> n)
    0 code

let test_codegen_while_is_jumps () =
  (* the idle Process: no sends, no block contexts, no allocation *)
  let vm' = Lazy.force vm in
  let meth = compile_do_it "[true] whileTrue" in
  let code = decode_all vm' meth in
  check "no sends in [true] whileTrue" 0 (count_sends code);
  check "no block contexts either" 0 (count_blocks code)

let test_codegen_if_inlined () =
  let vm' = Lazy.force vm in
  let meth = compile_do_it "1 < 2 ifTrue: [3] ifFalse: [4]" in
  let code = decode_all vm' meth in
  check "only the comparison send remains" 1 (count_sends code);
  check_bool "conditional jump present" true
    (Array.exists (function Opcode.Jump_if_false _ -> true | _ -> false) code)

let test_codegen_to_do_inlined () =
  let vm' = Lazy.force vm in
  let meth = compile_do_it "1 to: 10 do: [:i | i]" in
  let code = decode_all vm' meth in
  check "loop compiles to <= and + only" 2 (count_sends code);
  check "no block context" 0 (count_blocks code)

let test_codegen_real_block () =
  let vm' = Lazy.force vm in
  let meth = compile_do_it "#(1 2) collect: [:x | x]" in
  let code = decode_all vm' meth in
  check "real block for a real send" 1 (count_blocks code)

let test_codegen_literal_dedupe () =
  let vm' = Lazy.force vm in
  let meth = compile_do_it "#foo == #foo" in
  (* literal table: #foo once plus the == selector *)
  check "duplicate literals shared" 2 (Method_mirror.literal_count vm'.Vm.u meth)

let test_codegen_undeclared () =
  check_bool "undeclared lowercase variable is an error" true
    (try ignore (compile_do_it "zork + 1"); false with Codegen.Error _ -> true)

let test_codegen_super_outside_class () =
  check_bool "super in a doIt is an error" true
    (try ignore (compile_do_it "super foo"); false with Codegen.Error _ -> true)

(* --- evaluation round-trips through the decompiler --- *)

let test_decompile_roundtrip () =
  let vm = Lazy.force vm in
  (* install, decompile, recompile the decompiled source, compare results *)
  Vm.load_classes vm
    {st|
CLASS DecompProbe SUPER Object IVARS acc
METHODS DecompProbe
sum: n
    | total |
    total := 0.
    1 to: n do: [:i |
        i even ifTrue: [total := total + i] ifFalse: [total := total - 1]].
    ^total
!
classify: n
    n < 0 ifTrue: [^'negative'].
    (n = 0 or: [n = 1]) ifTrue: [^'small'].
    ^'big'
!
|st};
  let probe sel arg = Printf.sprintf "(DecompProbe new %s: %d)" sel arg in
  let before =
    List.map (fun n -> Vm.eval_to_string vm (probe "sum" n)) [ 0; 5; 10 ]
    @ List.map (fun n -> Vm.eval_to_string vm (probe "classify" n)) [ -3; 1; 9 ]
  in
  (* decompile both methods and reinstall from the decompiled source *)
  List.iter
    (fun sel ->
      let src =
        Vm.eval vm
          (Printf.sprintf
             "(DecompProbe methodAt: #%s) decompile" sel)
      in
      let text = Heap.string_value vm.Vm.heap src in
      check_bool (sel ^ " decompiles to something") true (String.length text > 10);
      ignore
        (Vm.eval vm
           (Printf.sprintf "Mirror compile: '%s' into: DecompProbe classSide: false"
              (String.concat "''" (String.split_on_char '\'' text)))))
    [ "sum:"; "classify:" ];
  let after =
    List.map (fun n -> Vm.eval_to_string vm (probe "sum" n)) [ 0; 5; 10 ]
    @ List.map (fun n -> Vm.eval_to_string vm (probe "classify" n)) [ -3; 1; 9 ]
  in
  Alcotest.(check (list string)) "recompiled methods behave identically"
    before after

let test_decompile_kernel_methods () =
  (* every kernel instance method decompiles without crashing *)
  let vm = Lazy.force vm in
  let u = vm.Vm.u in
  let h = vm.Vm.heap in
  let failures = ref [] in
  let total = ref 0 in
  let class_c = u.Universe.classes.Universe.class_c in
  List.iter
    (fun name ->
      match Universe.find_class u name with
      | None -> ()
      | Some cls when not (Oop.equal (Universe.class_of u cls) class_c) -> ()
      | Some cls ->
          let dict = Heap.get h cls Layout.Class.method_dict in
          List.iter
            (fun sel ->
              incr total;
              match Class_builder.dict_find u dict sel with
              | None -> ()
              | Some meth ->
                  (try ignore (Method_mirror.decompile u meth) with
                   | Decompiler.Unsupported msg ->
                       failures :=
                         (name ^ ">>" ^ Universe.symbol_name u sel ^ ": " ^ msg)
                         :: !failures))
            (Class_builder.dict_selectors u dict))
    (Universe.global_names u);
  check_bool
    (Printf.sprintf "all %d kernel methods decompile (failures: %s)" !total
       (String.concat "; " !failures))
    true (!failures = []);
  check_bool "a meaningful number of methods was exercised" true (!total > 150)

let test_class_file_parse () =
  let items =
    Class_file.parse
      "CLASS A SUPER Object IVARS x y CATEGORY T\nMETHODS A\nfoo\n ^x\n!\nbar\n ^y\n!\nCLASSMETHODS A\nnew\n ^super new\n!\n"
  in
  check "three items" 3 (List.length items);
  (match List.nth items 0 with
   | Class_file.Class_decl d ->
       check_str "name" "A" d.Class_file.name;
       Alcotest.(check (option string)) "super" (Some "Object") d.Class_file.super;
       Alcotest.(check (list string)) "ivars" [ "x"; "y" ] d.Class_file.ivars
   | _ -> Alcotest.fail "expected class decl");
  (match List.nth items 1 with
   | Class_file.Methods g ->
       check "two chunks" 2 (List.length g.Class_file.methods);
       check_bool "instance side" true (not g.Class_file.class_side)
   | _ -> Alcotest.fail "expected methods");
  (match List.nth items 2 with
   | Class_file.Methods g -> check_bool "class side" true g.Class_file.class_side
   | _ -> Alcotest.fail "expected class methods")

let () =
  Alcotest.run "compiler"
    [ ("lexer",
       [ Alcotest.test_case "basics" `Quick test_lexer_basics;
         Alcotest.test_case "literals" `Quick test_lexer_literals;
         Alcotest.test_case "comments" `Quick test_lexer_comments;
         Alcotest.test_case "binary selectors" `Quick test_lexer_binary_selectors;
         Alcotest.test_case "errors" `Quick test_lexer_errors;
         Alcotest.test_case "integer range" `Quick test_lexer_integer_range ]);
      ("parser",
       [ Alcotest.test_case "precedence" `Quick test_parser_precedence;
         Alcotest.test_case "multi keyword" `Quick test_parser_multi_keyword;
         Alcotest.test_case "cascade" `Quick test_parser_cascade;
         Alcotest.test_case "block" `Quick test_parser_block;
         Alcotest.test_case "method" `Quick test_parser_method;
         Alcotest.test_case "negative literal" `Quick test_parser_negative_literal;
         Alcotest.test_case "literal array" `Quick test_parser_literal_array;
         Alcotest.test_case "bar binary" `Quick test_parser_bar_binary;
         Alcotest.test_case "errors" `Quick test_parser_errors ]);
      ("codegen",
       [ Alcotest.test_case "whileTrue is jumps" `Quick test_codegen_while_is_jumps;
         Alcotest.test_case "if inlined" `Quick test_codegen_if_inlined;
         Alcotest.test_case "to:do: inlined" `Quick test_codegen_to_do_inlined;
         Alcotest.test_case "real blocks" `Quick test_codegen_real_block;
         Alcotest.test_case "literal dedupe" `Quick test_codegen_literal_dedupe;
         Alcotest.test_case "undeclared variable" `Quick test_codegen_undeclared;
         Alcotest.test_case "super outside class" `Quick test_codegen_super_outside_class ]);
      ("class_file",
       [ Alcotest.test_case "parse" `Quick test_class_file_parse ]);
      ("decompiler",
       [ Alcotest.test_case "roundtrip" `Quick test_decompile_roundtrip;
         Alcotest.test_case "kernel methods" `Quick test_decompile_kernel_methods ]) ]
