(* The universe ties the object memory to the well-known objects every part
   of the virtual machine needs: nil/true/false, the kernel classes, the
   interned-symbol table, the Smalltalk global dictionary (name ->
   Association, as compiled global references go through the Association's
   value slot), and the ProcessorScheduler.

   All objects created through this module live in old space: symbols,
   class structures, method literals and globals are permanent image
   objects.  Only the interpreter allocates in new space. *)

type classes = {
  mutable object_c : Oop.t;
  mutable undefined_object : Oop.t;
  mutable boolean : Oop.t;
  mutable true_c : Oop.t;
  mutable false_c : Oop.t;
  mutable small_integer : Oop.t;
  mutable character : Oop.t;
  mutable string : Oop.t;
  mutable symbol : Oop.t;
  mutable array : Oop.t;
  mutable association : Oop.t;
  mutable compiled_method : Oop.t;
  mutable method_dictionary : Oop.t;
  mutable method_context : Oop.t;
  mutable block_context : Oop.t;
  mutable process : Oop.t;
  mutable semaphore : Oop.t;
  mutable linked_list : Oop.t;
  mutable processor_scheduler : Oop.t;
  mutable class_c : Oop.t;
  mutable message : Oop.t;
  mutable float_c : Oop.t;
}

type t = {
  heap : Heap.t;
  mutable nil : Oop.t;
  mutable true_ : Oop.t;
  mutable false_ : Oop.t;
  mutable scheduler : Oop.t;
  classes : classes;
  symtab : (string, Oop.t) Hashtbl.t;
  globals : (string, Oop.t) Hashtbl.t;  (* name -> Association *)
  mutable char_table : Oop.t array;     (* the 256 Character instances *)
}

let no_class () = {
  object_c = Oop.sentinel; undefined_object = Oop.sentinel;
  boolean = Oop.sentinel; true_c = Oop.sentinel; false_c = Oop.sentinel;
  small_integer = Oop.sentinel; character = Oop.sentinel;
  string = Oop.sentinel; symbol = Oop.sentinel; array = Oop.sentinel;
  association = Oop.sentinel; compiled_method = Oop.sentinel;
  method_dictionary = Oop.sentinel; method_context = Oop.sentinel;
  block_context = Oop.sentinel; process = Oop.sentinel;
  semaphore = Oop.sentinel; linked_list = Oop.sentinel;
  processor_scheduler = Oop.sentinel; class_c = Oop.sentinel;
  message = Oop.sentinel; float_c = Oop.sentinel;
}

let create heap =
  { heap;
    nil = Oop.sentinel;
    true_ = Oop.sentinel;
    false_ = Oop.sentinel;
    scheduler = Oop.sentinel;
    classes = no_class ();
    symtab = Hashtbl.create ~random:false 512;
    globals = Hashtbl.create ~random:false 128;
    char_table = [||] }

let heap u = u.heap

(* The universe's well-known objects are host-side references the heap
   cannot see; the incremental old-space collector treats them as image
   roots (E18).  The tables are walked in bucket order, which is the
   collector's marking order: [create] makes them unrandomized whatever
   OCAMLRUNPARAM says, and copies of a universe use [Hashtbl.copy]. *)
let iter_roots u f =
  f u.nil; f u.true_; f u.false_; f u.scheduler;
  let c = u.classes in
  f c.object_c; f c.undefined_object; f c.boolean; f c.true_c; f c.false_c;
  f c.small_integer; f c.character; f c.string; f c.symbol; f c.array;
  f c.association; f c.compiled_method; f c.method_dictionary;
  f c.method_context; f c.block_context; f c.process; f c.semaphore;
  f c.linked_list; f c.processor_scheduler; f c.class_c; f c.message;
  f c.float_c;
  Hashtbl.iter (fun _ s -> f s) u.symtab;
  Hashtbl.iter (fun _ a -> f a) u.globals;
  Array.iter f u.char_table

(* --- symbols --- *)

let intern u name =
  match Hashtbl.find_opt u.symtab name with
  | Some s -> s
  | None ->
      let s = Heap.alloc_string_old u.heap ~cls:u.classes.symbol name in
      Hashtbl.add u.symtab name s;
      s

let symbol_name u sym = Heap.string_value u.heap sym
let is_interned u name = Hashtbl.mem u.symtab name

(* --- old-space constructors --- *)

let new_string u s = Heap.alloc_string_old u.heap ~cls:u.classes.string s

let new_array u elements =
  let n = List.length elements in
  let o = Heap.alloc_old u.heap ~slots:n ~raw:false ~cls:u.classes.array () in
  List.iteri (fun i e -> ignore (Heap.store_ptr u.heap o i e)) elements;
  o

let new_array_sized u n =
  Heap.alloc_old u.heap ~slots:n ~raw:false ~cls:u.classes.array ()

let new_association u ~key ~value =
  let o =
    Heap.alloc_old u.heap ~slots:Layout.Association.fixed_slots ~raw:false
      ~cls:u.classes.association ()
  in
  ignore (Heap.store_ptr u.heap o Layout.Association.key key);
  ignore (Heap.store_ptr u.heap o Layout.Association.value value);
  o

(* --- globals --- *)

(* The Association for [name], created (with a nil value) on first use:
   this is what a compiled reference to a global pushes. *)
let global_assoc u name =
  match Hashtbl.find_opt u.globals name with
  | Some a -> a
  | None ->
      let a = new_association u ~key:(intern u name) ~value:u.nil in
      Hashtbl.add u.globals name a;
      a

let set_global u name value =
  let a = global_assoc u name in
  ignore (Heap.store_ptr u.heap a Layout.Association.value value)

let get_global u name =
  match Hashtbl.find_opt u.globals name with
  | Some a -> Some (Heap.get u.heap a Layout.Association.value)
  | None -> None

let global_names u =
  Hashtbl.fold (fun name _ acc -> name :: acc) u.globals []
  |> List.sort String.compare

(* A defined class, looked up in the globals. *)
let find_class u name =
  match get_global u name with
  | Some c when Oop.is_ptr c && not (Oop.equal c u.nil) -> Some c
  | Some _ | None -> None

(* --- generic object queries --- *)

let class_of u (o : Oop.t) =
  if Oop.is_small o then u.classes.small_integer
  else Heap.class_at u.heap (Oop.addr o)

let class_name u cls =
  let name = Heap.get u.heap cls Layout.Class.name in
  if Oop.equal name u.nil then "?" else Heap.string_value u.heap name

(* Floats are boxed as two raw words holding the IEEE bits. *)

let float_bits f =
  let bits = Int64.bits_of_float f in
  (Int64.to_int (Int64.shift_right_logical bits 32),
   Int64.to_int (Int64.logand bits 0xFFFFFFFFL))

let write_float u o f =
  let hi, lo = float_bits f in
  Heap.set_raw u.heap o 0 hi;
  Heap.set_raw u.heap o 1 lo

let new_float_old u f =
  let o = Heap.alloc_old u.heap ~slots:2 ~raw:true ~cls:u.classes.float_c () in
  write_float u o f;
  o

let float_value u o =
  let hi = Heap.get u.heap o 0 and lo = Heap.get u.heap o 1 in
  Int64.float_of_bits
    Int64.(logor (shift_left (of_int hi) 32) (of_int lo))

(* Characters are immutable one-slot objects, preallocated. *)
let char_oop u c = u.char_table.(Char.code c)
let char_value u o = Char.chr (Heap.get u.heap o 0 land 0xff)

let init_char_table u =
  u.char_table <-
    Array.init 256 (fun code ->
        let o =
          Heap.alloc_old u.heap ~slots:1 ~raw:true ~cls:u.classes.character ()
        in
        Heap.set_raw u.heap o 0 code;
        o);
  Heap.add_array_root u.heap u.char_table

(* Register the context classes with the heap so the scavenger can bound
   context frames by their stack pointers. *)
let register_context_classes u =
  let h = u.heap in
  h.Heap.method_ctx_class <- u.classes.method_context;
  h.Heap.block_ctx_class <- u.classes.block_context
