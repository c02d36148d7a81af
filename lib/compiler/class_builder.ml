(* Building class objects and installing compiled methods.

   Classes use a simplified metaclass model: every class is an instance of
   [Class] and carries two method dictionaries, one for its instances and
   one for itself (class-side).  Lookup on a class receiver walks the
   class-side dictionaries up the superclass chain and then falls back to
   the instance protocol of [Class] (see the interpreter's lookup).

   Method dictionaries are a pair of parallel arrays scanned linearly —
   the method-lookup caches make the scan rare. *)

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let initial_dict_capacity = 8

let new_method_dict u capacity =
  let h = Universe.heap u in
  let cls = u.Universe.classes.Universe.method_dictionary in
  let d =
    Heap.alloc_old h ~slots:Layout.Mdict.fixed_slots ~raw:false ~cls ()
  in
  let sels = Universe.new_array_sized u capacity in
  let meths = Universe.new_array_sized u capacity in
  ignore (Heap.store_ptr h d Layout.Mdict.selectors sels);
  ignore (Heap.store_ptr h d Layout.Mdict.methods meths);
  ignore (Heap.store_ptr h d Layout.Mdict.size (Oop.of_small 0));
  d

let dict_size u d =
  Oop.small_val (Heap.get (Universe.heap u) d Layout.Mdict.size)

let dict_arrays u d =
  let h = Universe.heap u in
  (Heap.get h d Layout.Mdict.selectors, Heap.get h d Layout.Mdict.methods)

(* Find [selector] in dictionary [d]; returns the method oop. *)
let dict_find u d selector =
  let h = Universe.heap u in
  let sels, meths = dict_arrays u d in
  let n = dict_size u d in
  let rec scan i =
    if i >= n then None
    else if Oop.equal (Heap.get h sels i) selector then
      Some (Heap.get h meths i)
    else scan (i + 1)
  in
  scan 0

let dict_install_at u d i ~selector ~meth =
  let h = Universe.heap u in
  let sels, meths = dict_arrays u d in
  ignore (Heap.store_ptr h sels i selector);
  ignore (Heap.store_ptr h meths i meth);
  ignore (Heap.store_ptr h d Layout.Mdict.size (Oop.of_small (i + 1)))

(* Install (or replace) a method, growing the arrays when full.  Callers
   must flush the method caches afterwards. *)
let dict_install u d ~selector ~meth =
  let h = Universe.heap u in
  let sels, meths = dict_arrays u d in
  let n = dict_size u d in
  let rec scan i =
    if i >= n then begin
      let cap = Heap.slots h (Oop.addr sels) in
      if n = cap then begin
        (* grow both arrays *)
        let sels' = Universe.new_array_sized u (2 * cap) in
        let meths' = Universe.new_array_sized u (2 * cap) in
        for j = 0 to n - 1 do
          ignore (Heap.store_ptr h sels' j (Heap.get h sels j));
          ignore (Heap.store_ptr h meths' j (Heap.get h meths j))
        done;
        ignore (Heap.store_ptr h d Layout.Mdict.selectors sels');
        ignore (Heap.store_ptr h d Layout.Mdict.methods meths');
        dict_install_at u d n ~selector ~meth
      end
      else dict_install_at u d n ~selector ~meth
    end
    else if Oop.equal (Heap.get h sels i) selector then begin
      ignore (Heap.store_ptr h meths i meth)
    end
    else scan (i + 1)
  in
  scan 0

let dict_selectors u d =
  let h = Universe.heap u in
  let sels, _ = dict_arrays u d in
  List.init (dict_size u d) (fun i -> Heap.get h sels i)

(* --- classes --- *)

let format_code = function
  | Class_file.Pointers -> Layout.Class_format.pointers
  | Class_file.Variable -> Layout.Class_format.variable
  | Class_file.Raw_words -> Layout.Class_format.raw_words
  | Class_file.Raw_bytes -> Layout.Class_format.raw_bytes

let class_ivar_names u cls =
  let h = Universe.heap u in
  let arr = Heap.get h cls Layout.Class.ivar_names in
  if Oop.equal arr u.Universe.nil then []
  else
    List.init (Heap.slots h (Oop.addr arr)) (fun i ->
        Universe.symbol_name u (Heap.get h arr i))

(* Create (or redefine) a class object from a declaration.  The superclass
   must already exist. *)
let define_class u (decl : Class_file.class_decl) =
  let h = Universe.heap u in
  let super =
    match decl.super with
    | None -> u.Universe.nil
    | Some s ->
        (match Universe.find_class u s with
         | Some c -> c
         | None -> error "class %s: unknown superclass %s" decl.name s)
  in
  let inherited =
    if Oop.equal super u.Universe.nil then []
    else class_ivar_names u super
  in
  let all_ivars = inherited @ decl.ivars in
  let cls =
    match Universe.find_class u decl.name with
    | Some existing -> existing  (* redefinition keeps identity *)
    | None ->
        Heap.alloc_old h ~slots:Layout.Class.fixed_slots ~raw:false
          ~cls:u.Universe.classes.Universe.class_c ()
  in
  let set i v = ignore (Heap.store_ptr h cls i v) in
  set Layout.Class.name (Universe.intern u decl.name);
  set Layout.Class.superclass super;
  set Layout.Class.method_dict (new_method_dict u initial_dict_capacity);
  set Layout.Class.class_method_dict (new_method_dict u initial_dict_capacity);
  set Layout.Class.inst_size (Oop.of_small (List.length all_ivars));
  set Layout.Class.format (Oop.of_small (format_code decl.format));
  set Layout.Class.ivar_names
    (Universe.new_array u (List.map (Universe.intern u) all_ivars));
  set Layout.Class.category (Universe.new_string u decl.category);
  Universe.set_global u decl.name cls;
  cls

(* Compile [source] and install it in [cls]. *)
let add_method u ~cls ~class_side source =
  let h = Universe.heap u in
  let meth = Codegen.compile_method u ~cls source in
  if class_side then begin
    let info = Oop.small_val (Heap.get h meth Layout.Method.info) in
    ignore
      (Heap.store_ptr h meth Layout.Method.info
         (Oop.of_small (Layout.Minfo.set_class_side info)))
  end;
  let selector = Heap.get h meth Layout.Method.selector in
  let dict_field =
    if class_side then Layout.Class.class_method_dict
    else Layout.Class.method_dict
  in
  dict_install u (Heap.get h cls dict_field) ~selector ~meth;
  meth

(* Load a whole image definition file. *)
let load u source =
  List.iter
    (function
      | Class_file.Class_decl decl -> ignore (define_class u decl)
      | Class_file.Methods { class_name; class_side; methods } ->
          let cls =
            match Universe.find_class u class_name with
            | Some c -> c
            | None -> error "METHODS for unknown class %s" class_name
          in
          List.iter
            (fun src ->
              try ignore (add_method u ~cls ~class_side src) with
              | Codegen.Error msg | Parser.Error msg | Lexer.Error msg ->
                  error "in %s%s: %s\n--- method source ---\n%s"
                    class_name
                    (if class_side then " class" else "")
                    msg src)
            methods)
    (Class_file.parse source)
