(* A small label-resolving assembler used by the code generator.

   Instructions are appended to a growing buffer; jumps may target labels
   that are placed later.  [finish] patches every jump and returns the
   encoded word array. *)

type label = int

type pending = {
  at : int;               (* instruction index of the jump *)
  target : label;
  kind : [ `Jump | `If_true | `If_false | `Block of int * int ];
  (* for [`Block (nargs, arg_start)] the label marks the end of the body *)
}

type t = {
  mutable code : int array;
  mutable len : int;
  mutable labels : int array;      (* label -> instruction index, -1 pending *)
  mutable nlabels : int;
  mutable pendings : pending list;
}

let create () = {
  code = Array.make 64 0;
  len = 0;
  labels = Array.make 16 (-1);
  nlabels = 0;
  pendings = [];
}

let emit t op =
  if t.len = Array.length t.code then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.code 0 bigger 0 t.len;
    t.code <- bigger
  end;
  t.code.(t.len) <- Opcode.encode op;
  t.len <- t.len + 1

let new_label t =
  if t.nlabels = Array.length t.labels then begin
    let bigger = Array.make (2 * t.nlabels) (-1) in
    Array.blit t.labels 0 bigger 0 t.nlabels;
    t.labels <- bigger
  end;
  let l = t.nlabels in
  t.nlabels <- l + 1;
  l

let place_label t l =
  if t.labels.(l) <> -1 then invalid_arg "Assembler.place_label: placed twice";
  t.labels.(l) <- t.len

(* Emit a jump to [target]; placeholder offset patched at [finish]. *)
let emit_jump t kind target =
  t.pendings <- { at = t.len; target; kind } :: t.pendings;
  let op =
    match kind with
    | `Jump -> Opcode.Jump 0
    | `If_true -> Opcode.Jump_if_true 0
    | `If_false -> Opcode.Jump_if_false 0
    | `Block (nargs, arg_start) ->
        Opcode.Push_block { nargs; arg_start; body_len = 0 }
  in
  emit t op

let finish t =
  List.iter
    (fun p ->
      let dest = t.labels.(p.target) in
      if dest < 0 then invalid_arg "Assembler.finish: unplaced label";
      (* offsets are relative to the instruction after the jump *)
      let off = dest - (p.at + 1) in
      let op =
        match p.kind with
        | `Jump -> Opcode.Jump off
        | `If_true -> Opcode.Jump_if_true off
        | `If_false -> Opcode.Jump_if_false off
        | `Block (nargs, arg_start) ->
            if off < 0 then
              invalid_arg "Assembler.finish: block body must extend forward";
            Opcode.Push_block { nargs; arg_start; body_len = off }
      in
      t.code.(p.at) <- Opcode.encode op)
    t.pendings;
  Array.sub t.code 0 t.len
