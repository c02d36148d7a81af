(* Context (stack frame) management: allocation through the free-context
   lists, method and block activation, and returns.

   Contexts are heap objects of two standard sizes.  A method context's
   frame holds its temporaries followed by its evaluation stack; a block
   context's frame is evaluation stack only, its temporaries (including
   block parameters) living in the home context, Smalltalk-80 style. *)

open State

let frame_need ~ntemps ~maxstack = ntemps + maxstack

let size_class_of frame =
  if frame <= Layout.Ctx.small_frame then Free_contexts.Small
  else if frame <= Layout.Ctx.large_frame then Free_contexts.Large
  else vm_error "context frame too large (%d slots)" frame

let frame_slots = function
  | Free_contexts.Small -> Layout.Ctx.small_frame
  | Free_contexts.Large -> Layout.Ctx.large_frame

(* Serialized allocation: the eden bump runs under the allocation lock.
   [Heap.alloc_new] raises [Heap.Scavenge_needed] inside the section
   when eden is short; the section is then closed as [Spinlock.critical]
   would close it, and the timeline keeps the acquire. *)
let alloc_locked st ~slots ~raw ~bytes ~cls =
  let sh = st.sh in
  let cm = sh.cm in
  let lock = sh.alloc_lock in
  Spinlock.enter lock ~vp:st.id ~now:(now st)
    ~op_cycles:(cm.Cost_model.alloc_base + (cm.Cost_model.alloc_per_word * slots));
  let o =
    match Heap.alloc_new sh.heap ~vp:st.id ~slots ~raw ~bytes ~cls () with
    | o -> o
    | exception e ->
        Spinlock.leave_raised lock ~vp:st.id;
        raise e
  in
  sync_to st (Spinlock.leave lock ~vp:st.id);
  o

(* Allocate a context of [size], recycling from the free list when
   possible.  Charges the appropriate cost-model entries.  May raise
   [Heap.Scavenge_needed]; callers must not have mutated any state yet. *)
let alloc_context st ~size ~cls =
  let cm = st.sh.cm in
  let recycled =
    Free_contexts.take ~vp:st.id st.free_ctxs st.sh.heap ~now:(now st) size
  in
  sync_to st (Free_contexts.finish st.free_ctxs);
  if not (Oop.equal recycled Oop.sentinel) then begin
    add_cost st cm.Cost_model.ctx_recycled;
    Heap.set_class st.sh.heap (Oop.addr recycled) cls;
    recycled
  end
  else begin
    let ctx =
      alloc_locked st ~slots:(Layout.Ctx.fixed_slots + frame_slots size)
        ~raw:false ~bytes:false ~cls
    in
    add_cost st cm.Cost_model.ctx_fresh;
    ctx
  end

(* General-purpose new-space allocation for primitives (basicNew etc.),
   under the allocation lock. *)
let alloc_object st ~slots ~raw ?(bytes = false) ~cls () =
  alloc_locked st ~slots ~raw ~bytes ~cls

let minfo st meth =
  Oop.small_val (Heap.get st.sh.heap meth Layout.Method.info)

(* Activate [meth] for a send: the caller's stack holds receiver and
   [nargs] arguments on top.  Allocates the new context, copies the
   arguments into its temporaries, pops the caller's stack and switches. *)
let activate_method st ~meth ~nargs =
  let h = st.sh.heap in
  let n = nil st in
  let info = minfo st meth in
  let ntemps = Layout.Minfo.ntemps info in
  let maxstack = Layout.Minfo.maxstack info in
  let size = size_class_of (frame_need ~ntemps ~maxstack) in
  let ctx =
    alloc_context st ~size ~cls:st.sh.u.Universe.classes.Universe.method_context
  in
  let recv = peek st ~depth:nargs in
  (* raw stores for the small ints, checked stores for the pointers; no
     local closures, which would be allocated on every send *)
  store_with_check st ctx Layout.Ctx.sender !(st.active_ctx);
  Heap.set_raw h ctx Layout.Ctx.pc (Oop.of_small 0);
  Heap.set_raw h ctx Layout.Ctx.stackp (Oop.of_small ntemps);
  store_with_check st ctx Layout.Ctx.meth meth;
  store_with_check st ctx Layout.Ctx.receiver recv;
  store_with_check st ctx Layout.Ctx.home n;
  Heap.set_raw h ctx Layout.Ctx.startpc (Oop.of_small 0);
  Heap.set_raw h ctx Layout.Ctx.argstart (Oop.of_small 0);
  Heap.set_raw h ctx Layout.Ctx.nargs (Oop.of_small nargs);
  (* arguments into the first temporaries; remaining temps nil *)
  for i = 0 to nargs - 1 do
    store_with_check st ctx (Layout.Ctx.fixed_slots + i)
      (peek st ~depth:(nargs - 1 - i))
  done;
  for i = nargs to ntemps - 1 do
    store_with_check st ctx (Layout.Ctx.fixed_slots + i) n
  done;
  add_cost st (st.sh.cm.Cost_model.ctx_init_per_word * ntemps);
  popn st (nargs + 1);
  set_active_ctx st ctx

(* Create a BlockContext for a Push_block instruction. *)
let create_block_ctx st ~startpc ~nargs ~argstart =
  let h = st.sh.heap in
  let active = !(st.active_ctx) in
  let n = nil st in
  let home0 = Heap.get h active Layout.Ctx.home in
  let home = if Oop.equal home0 n then active else home0 in
  let meth = Heap.get h active Layout.Ctx.meth in
  let info = minfo st meth in
  let maxstack = Layout.Minfo.maxstack info in
  let size = size_class_of maxstack in
  let ctx =
    alloc_context st ~size ~cls:st.sh.u.Universe.classes.Universe.block_context
  in
  store_with_check st ctx Layout.Ctx.sender n;
  Heap.set_raw h ctx Layout.Ctx.pc (Oop.of_small startpc);
  Heap.set_raw h ctx Layout.Ctx.stackp (Oop.of_small 0);
  store_with_check st ctx Layout.Ctx.meth meth;
  store_with_check st ctx Layout.Ctx.receiver
    (Heap.get h active Layout.Ctx.receiver);
  store_with_check st ctx Layout.Ctx.home home;
  Heap.set_raw h ctx Layout.Ctx.startpc (Oop.of_small startpc);
  Heap.set_raw h ctx Layout.Ctx.argstart (Oop.of_small argstart);
  Heap.set_raw h ctx Layout.Ctx.nargs (Oop.of_small nargs);
  ctx

(* Activate a block for the value/value:... primitive.  The caller's stack
   holds the block and [nargs] arguments; the arguments are copied into the
   home context's temporaries at [argstart]. *)
let activate_block st ~block ~nargs =
  let h = st.sh.heap in
  let expected = Oop.small_val (Heap.get h block Layout.Ctx.nargs) in
  if expected <> nargs then None
  else begin
    let home = Heap.get h block Layout.Ctx.home in
    let argstart = Oop.small_val (Heap.get h block Layout.Ctx.argstart) in
    for i = 0 to nargs - 1 do
      store_with_check st home
        (Layout.Ctx.fixed_slots + argstart + i)
        (peek st ~depth:(nargs - 1 - i))
    done;
    popn st (nargs + 1);
    store_with_check st block Layout.Ctx.sender !(st.active_ctx);
    set_active_ctx st block;
    set_pc st (Oop.small_val (Heap.get h block Layout.Ctx.startpc));
    set_sp st 0;
    Some ()
  end

(* Should this dead context be handed to the free list?  Only method
   contexts of block-free methods can be safely recycled: nothing else can
   still reference them. *)
let recyclable st ctx =
  let h = st.sh.heap in
  Oop.equal (Heap.get h ctx Layout.Ctx.home) (nil st)
  && not (Layout.Minfo.has_blocks (minfo st (Heap.get h ctx Layout.Ctx.meth)))

let size_class_of_ctx st ctx =
  let slots = Heap.slots st.sh.heap (Oop.addr ctx) in
  if slots - Layout.Ctx.fixed_slots <= Layout.Ctx.small_frame then
    Free_contexts.Small
  else Free_contexts.Large

(* Return [value] to [target], recycling the dead context when safe.
   Returns false when [target] is nil: the process's bottom frame returned
   and the process is finished. *)
let return_to st ~from_ctx ~target ~value =
  if Oop.equal target (nil st) || Oop.equal target Oop.sentinel then false
  else begin
    (if recyclable st from_ctx then begin
       let n =
         Free_contexts.give ~vp:st.id st.free_ctxs st.sh.heap ~now:(now st)
           (size_class_of_ctx st from_ctx) from_ctx
       in
       sync_to st n
     end);
    set_active_ctx st target;
    push st value;
    true
  end
