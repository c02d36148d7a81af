(* Per-layer host-cost probes for the traced run.  Each probe is a timed
   loop over one layer's public function, repeated; the reported figure
   is the median repetition.  The census and snapshot probes run on the
   state the workload's last pass produced; the others build the small
   fixed state they need, so their numbers compare across workloads. *)

open Perfkit

type size = Workload.size

let median_time ~reps f =
  Stats.median
    (List.init reps (fun _ ->
         let t0 = Unix.gettimeofday () in
         f ();
         Unix.gettimeofday () -. t0))

let reps (size : size) n = match size with Full -> n | Smoke -> 1

let fresh_ms_vm () = Vm.create (Config.ms ~processors:1 ())

(* E12's three doIts on an MS uniprocessor: host ns per bytecode. *)
let interp size =
  let vm = fresh_ms_vm () in
  let per_bytecode (key, src) =
    let samples =
      List.init (reps size 5) (fun _ ->
          let s0 = Workload.total_steps vm in
          let (), dt =
            Workload.timed (fun () ->
                Span.record ~layer:"interp" "Vm.eval" (fun () -> ignore (Vm.eval vm src)))
          in
          1e9 *. dt /. float_of_int (max 1 (Workload.total_steps vm - s0)))
    in
    ("interp.host_ns_per_bytecode." ^ key, Stats.median samples)
  in
  List.map per_bytecode
    [ ("jump", "| i | i := 0. [i < 20000] whileTrue: [i := i + 1]");
      ("send", "1 to: 800 do: [:i | i printString]");
      ("alloc", "1 to: 4000 do: [:i | Array new: 8]") ]

let class_object h = Heap.alloc_old h ~slots:0 ~raw:false ~cls:Oop.sentinel ()

let new_heap ~eden =
  let h = Heap.create ~old_words:(1 lsl 16) ~eden_words:eden ~survivor_words:eden () in
  Heap.set_nil h (class_object h);
  h

(* Bump allocation of 8-slot objects until eden is nearly full. *)
let alloc size =
  let h = new_heap ~eden:(1 lsl 18) in
  let cls = class_object h in
  let samples =
    List.init (reps size 7) (fun _ ->
        let words = ref 0 in
        let (), dt =
          Workload.timed (fun () ->
              Span.record ~layer:"objmem" "Heap.alloc_new" (fun () ->
                  while Heap.eden_avail h ~vp:0 >= 64 do
                    let o = Heap.alloc_new h ~vp:0 ~slots:8 ~raw:false ~cls () in
                    words := !words + Heap.size_words h (Oop.addr o)
                  done))
        in
        ignore (Scavenger.scavenge h);
        1e9 *. dt /. float_of_int !words)
  in
  [ ("objmem.host_ns_per_alloc_word", Stats.median samples) ]

(* A rooted chain filling most of eden, so a scavenge copies all of it. *)
let chained_heap () =
  let h = new_heap ~eden:(1 lsl 18) in
  let cls = class_object h in
  let root = ref h.Heap.nil in
  while Heap.eden_avail h ~vp:0 >= 64 do
    let o = Heap.alloc_new h ~vp:0 ~slots:8 ~raw:false ~cls () in
    ignore (Heap.store_ptr h o 0 !root);
    root := o
  done;
  Heap.add_root h root;
  h

let copy size =
  let per_word key scavenge =
    let samples =
      List.init (reps size 9) (fun _ ->
          let h = chained_heap () in
          let st, dt = Workload.timed (fun () -> scavenge h) in
          1e9 *. dt
          /. float_of_int (max 1 (st.Heap.survivor_words + st.Heap.tenured_words)))
    in
    ("objmem.host_ns_per_copied_word." ^ key, Stats.median samples)
  in
  [ per_word "serial" (fun h ->
        Span.record ~layer:"objmem" "Scavenger.scavenge" (fun () -> Scavenger.scavenge h));
    per_word "k3" (fun h ->
        Span.record ~layer:"objmem" "Scavenger.scavenge_parallel" (fun () ->
            fst (Scavenger.scavenge_parallel h Cost_model.firefly ~workers:3 ()))) ]

(* One whole mark-sweep cycle over an old space full of unrooted
   garbage, at the default slice budget. *)
let major size =
  let samples =
    List.init (reps size 5) (fun _ ->
        let h = Heap.create ~old_words:(1 lsl 18) ~eden_words:1024 ~survivor_words:1024 () in
        Heap.set_nil h (class_object h);
        let cls = class_object h in
        let keep = ref h.Heap.nil in
        Heap.add_root h keep;
        let i = ref 0 in
        while Heap.old_avail h > 64 do
          let o = Heap.alloc_old h ~slots:8 ~raw:false ~cls () in
          if !i mod 4 = 0 then begin
            ignore (Heap.store_ptr h o 0 !keep);
            keep := o
          end;
          incr i
        done;
        let mj =
          Major.create ~heap:h ~budget:(Config.ms ()).Config.major_budget
            ~iter_roots:(fun _ -> ())
        in
        let now = ref 0 and finished = ref false in
        let (), dt =
          Workload.timed (fun () ->
              Span.record ~layer:"objmem" "Major.slice" (fun () ->
                  while not !finished do
                    let r = Major.slice mj Cost_model.firefly ~now:!now in
                    now := !now + r.Major.cost;
                    finished := r.Major.cycle_completed
                  done))
        in
        1e6 *. dt /. float_of_int (Major.slices mj))
  in
  [ ("objmem.host_us_per_major_slice", Stats.median samples) ]

let census size vm =
  let roots = Explorer.stable_roots vm in
  [ ( "objmem.host_ms_per_census",
      1e3
      *. median_time ~reps:(reps size 5) (fun () ->
             Span.record ~layer:"objmem" "Verify.census" (fun () ->
                 ignore (Verify.census vm.Vm.heap ~roots))) ) ]

let spinlock size =
  let n = match size with Workload.Full -> 1_000_000 | Smoke -> 10_000 in
  let per_acquire key step =
    let samples =
      List.init (reps size 5) (fun _ ->
          let lock = Spinlock.make ~enabled:true ~cost:Cost_model.firefly "probe" in
          let (), dt =
            Workload.timed (fun () ->
                Span.record ~layer:"vkernel" "Spinlock.locked_op" (fun () ->
                    for i = 1 to n do
                      ignore (Spinlock.locked_op lock ~now:(i * step) ~op_cycles:10)
                    done))
          in
          1e9 *. dt /. float_of_int n)
    in
    ("vkernel.spinlock.host_ns_per_acquire." ^ key, Stats.median samples)
  in
  (* a step above the section length always finds the lock free; a step
     of one always finds it held *)
  [ per_acquire "uncontended" 1000; per_acquire "contended" 1 ]

(* Pop the earliest of 64 timers and re-add it later: what the calendar
   engine does per event with 64 VPs. *)
let calendar size =
  let n = match size with Workload.Full -> 500_000 | Smoke -> 5_000 in
  let samples =
    List.init (reps size 5) (fun _ ->
        let cal = Calendar.create () in
        for i = 0 to 63 do Calendar.add cal ~key:(i * 37 mod 64) i done;
        let (), dt =
          Workload.timed (fun () ->
              Span.record ~layer:"vkernel" "Calendar.pop+add" (fun () ->
                  for _ = 1 to n do
                    match Calendar.pop cal with
                    | Some (k, v) -> Calendar.add cal ~key:(k + 1 + (v land 31)) v
                    | None -> ()
                  done))
        in
        1e9 *. dt /. float_of_int (2 * n))
  in
  [ ("vkernel.calendar.host_ns_per_op", Stats.median samples) ]

(* The explorer's doIt under the strict sanitizer against the same run
   with the sanitizer off. *)
let sanitizer size =
  let setup = Explorer.ms_setup ~quick:(size = Workload.Smoke) () in
  let vm_with mode =
    let vm = Vm.create { setup.Explorer.config with Config.sanitize = mode } in
    ignore (Workloads.spawn_busy vm setup.Explorer.busy);
    vm
  in
  let strict = vm_with Sanitizer.Strict and off = vm_with Sanitizer.Off in
  let run vm () =
    Span.record ~layer:"vkernel" "Vm.eval (sanitizer)" (fun () ->
        ignore (Vm.eval vm setup.Explorer.source))
  in
  let n = reps size 7 in
  let t_strict = median_time ~reps:n (run strict) in
  let t_off = median_time ~reps:n (run off) in
  [ ("vkernel.sanitizer.host_overhead_ratio", t_strict /. t_off) ]

let cmdlog size ~dir =
  let requests = match size with Workload.Full -> 2000 | Smoke -> 50 in
  let log = Cmdlog.generate ~seed:1 ~requests ~sessions:4 ~shards:4 in
  let entries = Cmdlog.to_list log in
  let path = Filename.concat dir "probe.cmdlog" in
  let n = reps size 5 in
  let rate key f =
    ( "vkernel.cmdlog.host_entries_per_s." ^ key,
      float_of_int requests
      /. median_time ~reps:n (fun () -> Span.record ~layer:"vkernel" ("Cmdlog." ^ key) f) )
  in
  let schedule = rate "schedule" (fun () -> ignore (Cmdlog.schedule ~slots:3 entries)) in
  let save = rate "save" (fun () -> Cmdlog.save path log) in
  let load = rate "load" (fun () -> ignore (Cmdlog.load path)) in
  Sys.remove path;
  [ schedule; save; load ]

let bootstrap size =
  let c = Config.ms () in
  let heap () =
    Heap.create ~tenure_age:c.Config.tenure_age ~old_words:c.Config.old_words
      ~eden_words:c.Config.eden_words ~survivor_words:c.Config.survivor_words ()
  in
  let samples =
    List.init (reps size 7) (fun _ ->
        let h = heap () in
        snd
          (Workload.timed (fun () ->
               Span.record ~layer:"image" "Bootstrap.install" (fun () ->
                   ignore (Bootstrap.install h)))))
  in
  [ ("image.bootstrap_host_ms", 1e3 *. Stats.median samples) ]

let snapshot size vm ~dir =
  let path = Filename.concat dir "probe.snap" in
  let n = reps size 3 in
  let snap = ref None in
  let capture =
    median_time ~reps:n (fun () ->
        snap :=
          Some
            (Span.record ~layer:"image" "Snapshot.capture" (fun () ->
                 Snapshot.capture vm.Vm.heap ~fingerprint:0 ~entries:0
                   ~registers:(Replica.capture_registers vm))))
  in
  let snap = Option.get !snap in
  let save =
    median_time ~reps:n (fun () ->
        Span.record ~layer:"image" "Snapshot.save" (fun () -> Snapshot.save path snap))
  in
  let bytes = float_of_int (Unix.stat path).Unix.st_size in
  let load =
    median_time ~reps:n (fun () ->
        Span.record ~layer:"image" "Snapshot.load" (fun () -> ignore (Snapshot.load path)))
  in
  Sys.remove path;
  let target = Vm.create vm.Vm.config in
  let restore =
    median_time ~reps:n (fun () ->
        Span.record ~layer:"image" "Snapshot.restore" (fun () ->
            Replica.restore_registers target (Snapshot.restore snap target.Vm.heap)))
  in
  let mb = bytes /. 1048576. in
  [ ("image.snapshot.bytes", bytes);
    ("image.snapshot.capture_host_ms", 1e3 *. capture);
    ("image.snapshot.save_mb_per_s", mb /. save);
    ("image.snapshot.load_mb_per_s", mb /. load);
    ("image.snapshot.restore_host_ms", 1e3 *. restore) ]

let compiler size =
  let vm = fresh_ms_vm () in
  let load =
    median_time ~reps:(reps size 5) (fun () ->
        Span.record ~layer:"compiler" "Vm.load_classes" (fun () ->
            Vm.load_classes vm Macro.benchmark_classes))
  in
  let src =
    "| bench |\nbench := MacroBenchmarks new.\nbench setUp.\n\
     31 timesRepeat: [bench readAndWriteClassOrganization].\n^0"
  in
  let batch = match size with Workload.Full -> 100 | Smoke -> 2 in
  let compile =
    median_time ~reps:(reps size 5) (fun () ->
        Span.record ~layer:"compiler" "Codegen.compile_do_it" (fun () ->
            for _ = 1 to batch do ignore (Codegen.compile_do_it vm.Vm.u src) done))
  in
  [ ("compiler.load_classes_host_ms", 1e3 *. load);
    ("compiler.doit_compile_host_us", 1e6 *. compile /. float_of_int batch) ]

let run size ~vm ~dir =
  List.concat_map
    (fun probe -> probe ())
    [ (fun () -> interp size); (fun () -> alloc size); (fun () -> copy size);
      (fun () -> major size); (fun () -> census size vm);
      (fun () -> spinlock size); (fun () -> calendar size);
      (fun () -> sanitizer size); (fun () -> cmdlog size ~dir);
      (fun () -> bootstrap size); (fun () -> snapshot size vm ~dir);
      (fun () -> compiler size) ]
