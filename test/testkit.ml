(* Shared fixtures for the test suites: small heaps with a fake class
   object, deterministic random object graphs with a structural
   fingerprint, the generator shapes the qcheck properties share, and
   strict-sanitizer VM setups with a busy evaluation workload.

   These used to be duplicated (with drift) across test_objmem,
   test_parallel_scavenge and test_sanitizer; any new suite that needs a
   heap or a strict VM should start here. *)

(* --- heaps --- *)

(* A small heap with a fake class object so headers have a valid class. *)
let make_heap ?(policy = Heap.Unlocked) ?(processors = 1) ?(eden = 2048)
    ?(survivor = 1024) ?(old = 8192) ?(tenure_age = 4) ?sanitizer () =
  let h =
    Heap.create ~policy ~processors ~tenure_age ?sanitizer ~old_words:old
      ~eden_words:eden ~survivor_words:survivor ()
  in
  let cls = Heap.alloc_old h ~slots:0 ~raw:false ~cls:Oop.sentinel () in
  let nil = Heap.alloc_old h ~slots:0 ~raw:false ~cls () in
  Heap.set_nil h nil;
  (h, cls, nil)

(* A replicated-eden heap, as the paper's MS configuration would hand the
   parallel scavenger. *)
let make_replicated_heap ?(processors = 4) ?(eden = 8192) ?(survivor = 4096)
    ?(old = 32768) ?(tenure_age = 4) ?sanitizer () =
  make_heap ~policy:Heap.Replicated_eden ~processors ~eden ~survivor ~old
    ~tenure_age ?sanitizer ()

(* --- random object graphs --- *)

(* Build a deterministic random graph: [n] new objects spread across the
   per-processor eden slices, fields pointing at earlier objects or small
   ints.  [old_holders] adds old-space objects holding new references so
   the entry table has entries to shard; [root_objs] roots the whole
   array (callers that want garbage root only a slice themselves). *)
let build_graph ?(old_holders = 0) ?(root_objs = false) h cls rng ~n
    ~processors =
  let objs = Array.make n Oop.sentinel in
  for i = 0 to n - 1 do
    let slots = 1 + Random.State.int rng 4 in
    let vp = Random.State.int rng processors in
    objs.(i) <- Heap.alloc_new h ~vp ~slots ~raw:false ~cls ();
    for f = 0 to slots - 1 do
      if i > 0 && Random.State.bool rng then
        ignore (Heap.store_ptr h objs.(i) f objs.(Random.State.int rng i))
      else
        ignore
          (Heap.store_ptr h objs.(i) f
             (Oop.of_small (Random.State.int rng 1000)))
    done
  done;
  for _ = 1 to old_holders do
    let o = Heap.alloc_old h ~slots:2 ~raw:false ~cls () in
    ignore (Heap.store_ptr h o 0 objs.(Random.State.int rng n))
  done;
  if root_objs then Heap.add_array_root h objs;
  objs

(* Structural fingerprint: DFS with visit order.  Two heaps hold the same
   graph exactly when their roots fingerprint identically, wherever the
   scavenger happened to put the objects. *)
let fingerprint h nil root =
  let seen = Hashtbl.create 32 in
  let acc = ref [] in
  let counter = ref 0 in
  let rec go o =
    if Oop.is_small o then
      acc := ("i" ^ string_of_int (Oop.small_val o)) :: !acc
    else if Oop.equal o nil then acc := "nil" :: !acc
    else
      match Hashtbl.find_opt seen o with
      | Some id -> acc := ("ref" ^ string_of_int id) :: !acc
      | None ->
          let id = !counter in
          incr counter;
          Hashtbl.add seen o id;
          let slots = Heap.slots h (Oop.addr o) in
          acc := Printf.sprintf "obj%d/%d" id slots :: !acc;
          for f = 0 to slots - 1 do
            go (Heap.get h o f)
          done
  in
  go root;
  String.concat "," (List.rev !acc)

(* --- generator shapes --- *)

(* (graph size, rng seed): the shape every graph property draws from. *)
let graph_arb = QCheck.(pair (int_range 1 60) (int_range 0 1_000_000))

(* (graph size, rng seed, worker count) for the parallel scavenger. *)
let graph_workers_arb =
  QCheck.(triple (int_range 1 60) (int_range 0 1_000_000) (int_range 1 5))

let seed_arb = QCheck.(int_range 0 1_000_000)

(* --- strict-sanitizer VMs --- *)

let strict_config ?(processors = 2) () =
  { (Config.testing ~processors ()) with Config.sanitize = Sanitizer.Strict }

let strict_vm ?processors () = Vm.create (strict_config ?processors ())

(* Strict VM on the work-stealing scheduler (E16): per-processor ready
   deques instead of the serialized queue. *)
let stealing_config ?(processors = 3) () =
  { (strict_config ~processors ()) with
    Config.scheduler = Config.Sched_stealing }

let stealing_vm ?processors () = Vm.create (stealing_config ?processors ())

(* The explorer setup that [mst explore --config=NAME --quick] runs. *)
let quick_setup name = (List.assoc name Explorer.setups) ~quick:true ()

(* A workload that exercises allocation, message sends and the transcript
   lock — enough traffic for the sanitizer to have something to watch. *)
let busy_eval_source =
  "| s | s := 0. 1 to: 120 do: [:i | s := s + i printString size. \
   Transcript show: 'x']. s"

(* --- fault schedules --- *)

(* Canonical single-fault plans shared by the explore, sanitizer and
   fault suites.  The index is the injection-point query number: small
   indices fire early in any busy run, and an index past the run's query
   count injects nothing at all (a legal, empty-effect plan). *)
let crash_plan index = [ { Plan.index; action = Fault.Vp_crash } ]
let holder_crash_plan index = [ { Plan.index; action = Fault.Holder_crash } ]

let holder_stall_plan index cycles =
  [ { Plan.index; action = Fault.Holder_stall cycles } ]

(* Generator of well-formed plans — strictly ascending indices, every
   fault kind — for the round-trip and shrinking properties. *)
let fault_plan_arb =
  let open QCheck in
  let fault =
    Gen.oneof
      [ Gen.return Fault.Vp_crash;
        Gen.map (fun n -> Fault.Vp_stall n) (Gen.int_range 1 5000);
        Gen.map (fun n -> Fault.Holder_stall n) (Gen.int_range 1 5000);
        Gen.return Fault.Holder_crash;
        Gen.map (fun n -> Fault.Device_timeout n) (Gen.int_range 1 5000);
        Gen.map (fun k -> Fault.Worker_crash k) (Gen.int_range 0 7);
        Gen.map (fun k -> Fault.Replica_crash k) (Gen.int_range 0 7) ]
  in
  let gen =
    Gen.map
      (fun gaps ->
        List.rev
          (snd
             (List.fold_left
                (fun (ix, acc) (gap, fault) ->
                  let ix = ix + gap in
                  (ix, { Plan.index = ix; action = fault } :: acc))
                (0, []) gaps)))
      (Gen.list_size (Gen.int_range 0 10) (Gen.pair (Gen.int_range 1 50) fault))
  in
  make ~print:(Format.asprintf "%a" Fault.pp) gen

(* --- fault VMs --- *)

(* Strict VM with the spin watchdog armed, for the fault suites.  The
   testing configurations use the uniform cost model (Delay quantum 4),
   so the default bound of 2000 quanta = 8000 cycles sits above every
   injected stall bound: only a lock held by a dead processor trips it. *)
let fault_config ?(processors = 4) ?(watchdog_quanta = 2000)
    ?(backoff_quanta = 4) ?(scheduler = Config.Sched_locked) () =
  { (strict_config ~processors ()) with
    Config.watchdog_quanta;
    Config.backoff_quanta;
    Config.scheduler }

(* [fault_vm injector] is a strict watchdog VM with [injector] installed
   (pass [None] for a fault-free control on the identical config). *)
let fault_vm ?processors ?watchdog_quanta ?backoff_quanta ?scheduler injector
    =
  let vm =
    Vm.create
      (fault_config ?processors ?watchdog_quanta ?backoff_quanta ?scheduler
         ())
  in
  Vm.set_fault_injector vm injector;
  vm
