(* Bootstrapping the virtual image.

   The metacircular knot is tied here: bare class objects for every class
   the VM knows about are allocated first (with their fields zeroed), the
   class [Class] is made an instance of itself, and nil/true/false are
   instantiated — only then can symbols be interned and the kernel sources
   compiled through the normal class builder, which recognises the
   pre-allocated classes by their global bindings and keeps their
   identity. *)

let proto_class h =
  Heap.alloc_old h ~slots:Layout.Class.fixed_slots ~raw:false
    ~cls:Oop.sentinel ()

let compile heap =
  let u = Universe.create heap in
  let c = u.Universe.classes in
  (* 1. bare class objects for the VM-known classes *)
  let protos = [
    ("Object", fun o -> c.Universe.object_c <- o);
    ("UndefinedObject", fun o -> c.Universe.undefined_object <- o);
    ("Boolean", fun o -> c.Universe.boolean <- o);
    ("True", fun o -> c.Universe.true_c <- o);
    ("False", fun o -> c.Universe.false_c <- o);
    ("SmallInteger", fun o -> c.Universe.small_integer <- o);
    ("Float", fun o -> c.Universe.float_c <- o);
    ("Character", fun o -> c.Universe.character <- o);
    ("String", fun o -> c.Universe.string <- o);
    ("Symbol", fun o -> c.Universe.symbol <- o);
    ("Array", fun o -> c.Universe.array <- o);
    ("Association", fun o -> c.Universe.association <- o);
    ("CompiledMethod", fun o -> c.Universe.compiled_method <- o);
    ("MethodDictionary", fun o -> c.Universe.method_dictionary <- o);
    ("MethodContext", fun o -> c.Universe.method_context <- o);
    ("BlockContext", fun o -> c.Universe.block_context <- o);
    ("Process", fun o -> c.Universe.process <- o);
    ("Semaphore", fun o -> c.Universe.semaphore <- o);
    ("LinkedList", fun o -> c.Universe.linked_list <- o);
    ("ProcessorScheduler", fun o -> c.Universe.processor_scheduler <- o);
    ("Class", fun o -> c.Universe.class_c <- o);
    ("Message", fun o -> c.Universe.message <- o);
  ] in
  let class_oops =
    List.map
      (fun (name, assign) ->
        let o = proto_class heap in
        assign o;
        (name, o))
      protos
  in
  (* every class, including Class, is an instance of Class *)
  List.iter
    (fun (_, o) -> Heap.set_class heap (Oop.addr o) c.Universe.class_c)
    class_oops;
  (* 2. nil, true, false *)
  u.Universe.nil <-
    Heap.alloc_old heap ~slots:0 ~raw:false ~cls:c.Universe.undefined_object ();
  Heap.set_nil heap u.Universe.nil;
  u.Universe.true_ <-
    Heap.alloc_old heap ~slots:0 ~raw:false ~cls:c.Universe.true_c ();
  u.Universe.false_ <-
    Heap.alloc_old heap ~slots:0 ~raw:false ~cls:c.Universe.false_c ();
  (* 3. symbols and characters can now exist *)
  Universe.init_char_table u;
  (* 4. bind the protos as globals so the class builder keeps identity *)
  List.iter (fun (name, o) -> Universe.set_global u name o) class_oops;
  Universe.register_context_classes u;
  (* 5. the ProcessorScheduler instance and its ready lists *)
  let new_linked_list () =
    let o =
      Heap.alloc_old heap ~slots:Layout.Linked_list.fixed_slots ~raw:false
        ~cls:c.Universe.linked_list ()
    in
    ignore (Heap.store_ptr heap o Layout.Linked_list.first u.Universe.nil);
    ignore (Heap.store_ptr heap o Layout.Linked_list.last u.Universe.nil);
    o
  in
  let ready =
    Universe.new_array u
      (List.init Layout.Scheduler.priorities (fun _ -> new_linked_list ()))
  in
  let scheduler =
    Heap.alloc_old heap ~slots:Layout.Scheduler.fixed_slots ~raw:false
      ~cls:c.Universe.processor_scheduler ()
  in
  ignore (Heap.store_ptr heap scheduler Layout.Scheduler.ready_lists ready);
  ignore
    (Heap.store_ptr heap scheduler Layout.Scheduler.active_process
       u.Universe.nil);
  u.Universe.scheduler <- scheduler;
  Universe.set_global u "Processor" scheduler;
  (* 6. compile the kernel *)
  List.iter
    (fun source -> Class_builder.load u source)
    Kernel_sources.all;
  (* 7. service objects bound to globals *)
  let instance_of name =
    match Universe.find_class u name with
    | Some cls ->
        Heap.alloc_old heap
          ~slots:(Oop.small_val (Heap.get heap cls Layout.Class.inst_size))
          ~raw:false ~cls ()
    | None -> failwith ("bootstrap: kernel class missing: " ^ name)
  in
  Universe.set_global u "Transcript" (instance_of "TranscriptStream");
  Universe.set_global u "Display" (instance_of "DisplayScreen");
  u

(* The kernel image: everything [compile] writes.  That is old space
   [old.base, old.ptr), the heap's two allocation counters, and the
   universe's well-known oops and tables; [Heap.set_nil], the context
   classes and the character-table root follow from the universe.  None
   of it depends on eden or survivor sizes, the allocation policy or the
   processor count, and old space always starts at the same address, so
   one image serves every heap geometry.  It is read-only once built:
   each boot copies what it hands out. *)
type image = {
  words : int array;  (* old space from [old.base], up to the bump pointer *)
  digest : int;  (* FNV-1a over [words]: names the image in checkpoints *)
  allocations : int;
  words_allocated : int;
  universe : Universe.t;  (* on an empty placeholder heap *)
}

(* A copy of [u] on [heap] that shares nothing mutable with [u].
   [Hashtbl.copy] keeps the bucket layout, so the copy iterates its
   tables in exactly [u]'s order: [Universe.iter_roots] feeds the major
   collector's marking in that order. *)
let copy_universe (u : Universe.t) heap =
  let c = u.Universe.classes in
  { u with
    Universe.heap;
    classes = { c with Universe.object_c = c.Universe.object_c };
    symtab = Hashtbl.copy u.Universe.symtab;
    globals = Hashtbl.copy u.Universe.globals;
    char_table = Array.copy u.Universe.char_table }

let digest_words words = Array.fold_left Fnv.mix Fnv.offset words

let capture (u : Universe.t) =
  let h = u.Universe.heap in
  let words =
    Array.sub h.Heap.mem h.Heap.old.Heap.base (Heap.region_used h.Heap.old)
  in
  { words;
    digest = digest_words words;
    allocations = h.Heap.allocations;
    words_allocated = h.Heap.words_allocated;
    universe =
      copy_universe u
        (Heap.create ~old_words:0 ~eden_words:0 ~survivor_words:0 ()) }

let boot img heap =
  let old = heap.Heap.old and n = Array.length img.words in
  if Heap.region_avail old < n then
    raise (Heap.Image_full "old space exhausted");
  Heap.blit_words img.words 0 heap.Heap.mem old.Heap.base n;
  old.Heap.ptr <- old.Heap.base + n;
  heap.Heap.allocations <- img.allocations;
  heap.Heap.words_allocated <- img.words_allocated;
  let u = copy_universe img.universe heap in
  Heap.set_nil heap u.Universe.nil;
  Heap.add_array_root heap u.Universe.char_table;
  Universe.register_context_classes u;
  u

(* The process's one image, built by the first [install] from that
   call's heap, or by the first [image_words]/[image_digest] on a heap of
   its own.  The lock makes the first build happen once even when
   several domains boot at the same time. *)
let image : image option ref = ref None
let image_lock = Mutex.create ()

let install heap =
  let old = heap.Heap.old in
  if old.Heap.ptr <> old.Heap.base || heap.Heap.allocations <> 0 then
    invalid_arg "Bootstrap.install: heap is not fresh";
  let built =
    Mutex.protect image_lock (fun () ->
        match !image with
        | Some img -> Either.Left img
        | None ->
            let u = compile heap in
            image := Some (capture u);
            Either.Right u)
  in
  match built with Either.Left img -> boot img heap | Either.Right u -> u

(* Old space for an image built without a VM to boot: room for the
   kernel with a wide margin.  Nothing is allocated in new space.
   [install] compiles into its caller's heap instead, so that a process
   never holds a heap just for the compile: a 2 MiB array is 15 % of a
   small workload's peak host heap. *)
let compile_old_words = 1 lsl 18

let built_image () =
  Mutex.protect image_lock (fun () ->
      match !image with
      | Some img -> img
      | None ->
          let heap =
            Heap.create ~old_words:compile_old_words ~eden_words:0
              ~survivor_words:0 ()
          in
          let img = capture (compile heap) in
          image := Some img;
          img)

let image_words () = (built_image ()).words
let image_digest () = (built_image ()).digest
