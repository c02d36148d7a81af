(* Abstract syntax of the Smalltalk-80 method language. *)

type literal =
  | Lit_int of int
  | Lit_float of float
  | Lit_string of string
  | Lit_symbol of string
  | Lit_char of char
  | Lit_array of literal list
  | Lit_nil
  | Lit_true
  | Lit_false

type expr =
  | Self
  | Super                      (* only legal as a message receiver *)
  | Var of string              (* resolved to temp/ivar/global at codegen *)
  | Lit of literal
  | Assign of string * expr
  | Message of { receiver : expr; selector : string; args : expr list }
  | Cascade of { receiver : expr; messages : (string * expr list) list }
    (* [receiver] is the receiver of every cascaded message; the first
       message of the cascade is messages' head *)
  | Block of { params : string list; temps : string list; body : stmt list }

and stmt =
  | Expr of expr
  | Return of expr

type meth = {
  selector : string;
  params : string list;
  temps : string list;
  primitive : int option;      (* <primitive: n> *)
  body : stmt list;
  source : string;
}

(* --- selector classification, shared by parser, printer, decompiler --- *)

let selector_arity s =
  if s = "" then 0
  else if String.contains s ':' then
    String.fold_left (fun n c -> if c = ':' then n + 1 else n) 0 s
  else begin
    let c = s.[0] in
    if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then 0
    else 1 (* binary *)
  end

let is_keyword_selector s = String.contains s ':'
let is_binary_selector s = selector_arity s = 1 && not (is_keyword_selector s)

let keyword_parts s =
  (* "at:put:" -> ["at:"; "put:"] *)
  let parts = ref [] and start = ref 0 in
  String.iteri
    (fun i c ->
      if c = ':' then begin
        parts := String.sub s !start (i - !start + 1) :: !parts;
        start := i + 1
      end)
    s;
  List.rev !parts

(* --- pretty-printing (used by error messages and the decompiler) --- *)

let escape_string s =
  String.concat "''" (String.split_on_char '\'' s)

let rec pp_literal fmt = function
  | Lit_int n -> Format.fprintf fmt "%d" n
  | Lit_float f -> Format.fprintf fmt "%g" f
  | Lit_string s -> Format.fprintf fmt "'%s'" (escape_string s)
  | Lit_symbol s -> Format.fprintf fmt "#%s" s
  | Lit_char c -> Format.fprintf fmt "$%c" c
  | Lit_array els ->
      Format.fprintf fmt "#(%a)"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_inner_literal)
        els
  | Lit_nil -> Format.fprintf fmt "nil"
  | Lit_true -> Format.fprintf fmt "true"
  | Lit_false -> Format.fprintf fmt "false"

and pp_inner_literal fmt = function
  | Lit_symbol s -> Format.fprintf fmt "%s" s  (* no # inside #( ) *)
  | other -> pp_literal fmt other

(* Precedence levels for parenthesisation: 3 primary, 2 unary, 1 binary,
   0 keyword/assignment/cascade. *)
let rec precedence = function
  | Self | Super | Var _ | Lit _ | Block _ -> 3
  | Message { selector; _ } ->
      if is_keyword_selector selector then 0
      else if is_binary_selector selector then 1
      else 2
  | Assign _ | Cascade _ -> 0

and pp_expr ?(prec = 0) fmt e =
  let mine = precedence e in
  if mine < prec then Format.fprintf fmt "(%a)" (pp_expr ~prec:0) e
  else
    match e with
    | Self -> Format.fprintf fmt "self"
    | Super -> Format.fprintf fmt "super"
    | Var v -> Format.fprintf fmt "%s" v
    | Lit l -> pp_literal fmt l
    | Assign (v, e) -> Format.fprintf fmt "%s := %a" v (pp_expr ~prec:0) e
    | Message { receiver; selector; args } ->
        pp_message fmt receiver selector args
    | Cascade { receiver; messages } ->
        (match messages with
         | [] -> pp_expr ~prec fmt receiver
         | (sel0, args0) :: rest ->
             pp_message fmt receiver sel0 args0;
             List.iter
               (fun (sel, args) ->
                 Format.fprintf fmt "; ";
                 pp_selector_and_args fmt sel args)
               rest)
    | Block { params; temps; body } ->
        Format.fprintf fmt "[";
        List.iter (fun p -> Format.fprintf fmt ":%s " p) params;
        if params <> [] then Format.fprintf fmt "| ";
        if temps <> [] then
          Format.fprintf fmt "| %s | " (String.concat " " temps);
        pp_body fmt body;
        Format.fprintf fmt "]"

and pp_message fmt receiver selector args =
  if is_keyword_selector selector then begin
    Format.fprintf fmt "%a " (pp_expr ~prec:1) receiver;
    pp_selector_and_args fmt selector args
  end
  else if args = [] then
    Format.fprintf fmt "%a %s" (pp_expr ~prec:2) receiver selector
  else
    Format.fprintf fmt "%a %s %a" (pp_expr ~prec:1) receiver selector
      (pp_expr ~prec:2) (List.hd args)

and pp_selector_and_args fmt selector args =
  if is_keyword_selector selector then
    List.iter2
      (fun part arg -> Format.fprintf fmt "%s %a " part (pp_expr ~prec:1) arg)
      (keyword_parts selector) args
  else if args = [] then Format.fprintf fmt "%s" selector
  else Format.fprintf fmt "%s %a" selector (pp_expr ~prec:2) (List.hd args)

and pp_stmt fmt = function
  | Expr e -> pp_expr ~prec:0 fmt e
  | Return e -> Format.fprintf fmt "^%a" (pp_expr ~prec:0) e

and pp_body fmt body =
  let rec go = function
    | [] -> ()
    | [ s ] -> pp_stmt fmt s
    | s :: rest ->
        pp_stmt fmt s;
        Format.fprintf fmt ". ";
        go rest
  in
  go body

(* Render a method's header pattern: "at: index put: value". *)
let pattern_of ~selector ~params =
  if is_keyword_selector selector then
    String.concat " "
      (List.map2 (fun part p -> part ^ " " ^ p) (keyword_parts selector) params)
  else if params = [] then selector
  else selector ^ " " ^ List.hd params

let pp_method fmt (m : meth) =
  Format.fprintf fmt "%s@." (pattern_of ~selector:m.selector ~params:m.params);
  (match m.primitive with
   | Some n -> Format.fprintf fmt "    <primitive: %d>@." n
   | None -> ());
  if m.temps <> [] then
    Format.fprintf fmt "    | %s |@." (String.concat " " m.temps);
  List.iter (fun s -> Format.fprintf fmt "    %a.@." pp_stmt s) m.body

let method_to_string m = Format.asprintf "%a" pp_method m
