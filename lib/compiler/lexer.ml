(* Lexer for the Smalltalk-80 method language.

   Handled here: identifiers and keywords ([foo:]), binary selectors,
   integers (with radix, [16rFF]), floats, characters [$x], strings
   (['it''s']), symbols ([#foo:bar:], [#+]), literal-array openers [#(],
   assignment [:=], returns [^], cascades [;], comments ["..."].  The [!]
   character is reserved as the chunk terminator of the class-file format
   and never reaches the parser. *)

type token =
  | Ident of string
  | Keyword of string      (* trailing colon included: "at:" *)
  | Binary of string
  | Int of int
  | Float of float
  | Str of string
  | Char of char
  | Sym of string
  | Hash_paren             (* #( *)
  | Assign                 (* := *)
  | Lparen | Rparen
  | Lbracket | Rbracket
  | Lbrace | Rbrace
  | Period | Semi | Caret | Bar | Colon
  | Lt | Gt                (* also Binary, but pragmas need them distinct *)
  | Eof

exception Error of string

let token_to_string = function
  | Ident s -> s
  | Keyword s -> s
  | Binary s -> s
  | Int n -> string_of_int n
  | Float f -> string_of_float f
  | Str s -> "'" ^ s ^ "'"
  | Char c -> Printf.sprintf "$%c" c
  | Sym s -> "#" ^ s
  | Hash_paren -> "#("
  | Assign -> ":="
  | Lparen -> "(" | Rparen -> ")"
  | Lbracket -> "[" | Rbracket -> "]"
  | Lbrace -> "{" | Rbrace -> "}"
  | Period -> "." | Semi -> ";" | Caret -> "^" | Bar -> "|" | Colon -> ":"
  | Lt -> "<" | Gt -> ">"
  | Eof -> "<eof>"

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
}

let make src = { src; pos = 0; line = 1 }

let error lx msg = raise (Error (Printf.sprintf "line %d: %s" lx.line msg))

let peek_char lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None
let peek_char2 lx =
  if lx.pos + 1 < String.length lx.src then Some lx.src.[lx.pos + 1] else None

let advance lx =
  (match peek_char lx with Some '\n' -> lx.line <- lx.line + 1 | _ -> ());
  lx.pos <- lx.pos + 1

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_letter c || is_digit c

(* Binary selector characters.  '|' is reserved for temp declarations and
   block parameter lists; '!' for chunk boundaries. *)
let is_binary_char c =
  match c with
  | '+' | '-' | '*' | '/' | '~' | '<' | '>' | '=' | '&' | '@' | '%' | ','
  | '?' | '\\' -> true
  | _ -> false

let rec skip_blank_and_comments lx =
  match peek_char lx with
  | Some (' ' | '\t' | '\r' | '\n') -> advance lx; skip_blank_and_comments lx
  | Some '"' ->
      advance lx;
      let rec skip () =
        match peek_char lx with
        | None -> error lx "unterminated comment"
        | Some '"' -> advance lx
        | Some _ -> advance lx; skip ()
      in
      skip ();
      skip_blank_and_comments lx
  | Some _ | None -> ()

let lex_ident lx =
  let start = lx.pos in
  while (match peek_char lx with Some c -> is_ident_char c | None -> false) do
    advance lx
  done;
  let name = String.sub lx.src start (lx.pos - start) in
  if peek_char lx = Some ':' && peek_char2 lx <> Some '=' then begin
    advance lx;
    Keyword (name ^ ":")
  end
  else Ident name

let digit_value c =
  if is_digit c then Char.code c - Char.code '0'
  else if c >= 'A' && c <= 'Z' then Char.code c - Char.code 'A' + 10
  else -1

(* Integer literals must fit a SmallInteger: a wider one would wrap
   silently when the compiler tags it. *)
let small_int lx text =
  match int_of_string_opt text with
  | Some n when n <= Oop.max_small -> n
  | Some _ | None -> error lx ("integer literal out of range: " ^ text)

let lex_digits lx =
  let start = lx.pos in
  while (match peek_char lx with Some c -> is_digit c | None -> false) do
    advance lx
  done;
  String.sub lx.src start (lx.pos - start)

let lex_number lx =
  let int_text = lex_digits lx in
  match peek_char lx with
  | Some 'r' ->
      (* radix integer, e.g. 16rFF *)
      advance lx;
      let radix =
        match int_of_string_opt int_text with
        | Some r when r >= 2 && r <= 36 -> r
        | Some _ | None -> error lx "radix out of range"
      in
      let v = ref 0 and seen = ref false in
      let rec go () =
        match peek_char lx with
        | Some c when digit_value c >= 0 && digit_value c < radix ->
            let d = digit_value c in
            if !v > (Oop.max_small - d) / radix then
              error lx "radix integer literal out of range";
            v := (!v * radix) + d;
            seen := true;
            advance lx;
            go ()
        | Some _ | None -> ()
      in
      go ();
      if not !seen then error lx "missing radix digits";
      Int !v
  | Some '.' when (match peek_char2 lx with Some c -> is_digit c | None -> false) ->
      advance lx; (* '.' *)
      let frac_text = lex_digits lx in
      let exp_text =
        match peek_char lx with
        | Some 'e' ->
            advance lx;
            let neg =
              if peek_char lx = Some '-' then (advance lx; true) else false
            in
            let digits = lex_digits lx in
            if digits = "" then error lx "missing exponent digits";
            (if neg then "-" else "") ^ digits
        | Some _ | None -> "0"
      in
      (* the integer part stays text: it may exceed the host's ints *)
      Float (float_of_string (int_text ^ "." ^ frac_text ^ "e" ^ exp_text))
  | Some _ | None -> Int (small_int lx int_text)

let lex_string lx =
  advance lx; (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek_char lx with
    | None -> error lx "unterminated string"
    | Some '\'' ->
        advance lx;
        if peek_char lx = Some '\'' then begin
          Buffer.add_char buf '\'';
          advance lx;
          go ()
        end
    | Some c ->
        Buffer.add_char buf c;
        advance lx;
        go ()
  in
  go ();
  Str (Buffer.contents buf)

let lex_symbol_body lx =
  match peek_char lx with
  | Some c when is_letter c ->
      (* possibly multi-keyword: #at:put: *)
      let buf = Buffer.create 16 in
      let rec go () =
        match peek_char lx with
        | Some c when is_ident_char c ->
            Buffer.add_char buf c; advance lx; go ()
        | Some ':' -> Buffer.add_char buf ':'; advance lx; go ()
        | Some _ | None -> ()
      in
      go ();
      Sym (Buffer.contents buf)
  | Some c when is_binary_char c || c = '|' ->
      let start = lx.pos in
      while (match peek_char lx with
             | Some c -> is_binary_char c || c = '|'
             | None -> false) do
        advance lx
      done;
      Sym (String.sub lx.src start (lx.pos - start))
  | Some '\'' ->
      (match lex_string lx with
       | Str s -> Sym s
       | _ -> assert false)
  | Some c -> error lx (Printf.sprintf "bad symbol start %c" c)
  | None -> error lx "symbol at end of input"

let next lx =
  skip_blank_and_comments lx;
  match peek_char lx with
  | None -> Eof
  | Some c when is_letter c -> lex_ident lx
  | Some c when is_digit c -> lex_number lx
  | Some '\'' -> lex_string lx
  | Some '$' ->
      advance lx;
      (match peek_char lx with
       | Some c -> advance lx; Char c
       | None -> error lx "character literal at end of input")
  | Some '#' ->
      advance lx;
      (match peek_char lx with
       | Some '(' -> advance lx; Hash_paren
       | Some _ -> lex_symbol_body lx
       | None -> error lx "symbol at end of input")
  | Some ':' when peek_char2 lx = Some '=' ->
      advance lx; advance lx; Assign
  | Some ':' -> advance lx; Colon
  | Some '(' -> advance lx; Lparen
  | Some ')' -> advance lx; Rparen
  | Some '[' -> advance lx; Lbracket
  | Some ']' -> advance lx; Rbracket
  | Some '{' -> advance lx; Lbrace
  | Some '}' -> advance lx; Rbrace
  | Some '.' -> advance lx; Period
  | Some ';' -> advance lx; Semi
  | Some '^' -> advance lx; Caret
  | Some '|' -> advance lx; Bar
  | Some c when is_binary_char c ->
      let start = lx.pos in
      advance lx;
      (* binary selectors are at most two characters *)
      (match peek_char lx with
       | Some c2 when is_binary_char c2 -> advance lx
       | Some _ | None -> ());
      let s = String.sub lx.src start (lx.pos - start) in
      if s = "<" then Lt else if s = ">" then Gt else Binary s
  | Some '!' -> error lx "'!' is reserved for chunk boundaries"
  | Some c -> error lx (Printf.sprintf "unexpected character %C" c)

(* Tokenize the whole source; the parser works over the resulting array. *)
let tokenize src =
  let lx = make src in
  let rec go acc =
    match next lx with
    | Eof -> List.rev (Eof :: acc)
    | tok -> go (tok :: acc)
  in
  Array.of_list (go [])
