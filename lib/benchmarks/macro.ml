(* The macro benchmarks (after McCall's standard Smalltalk-80 benchmarks)
   and the four system states of the paper's evaluation:

     baseline BS          one interpreter, no multiprocessor support
     MS                   one interpreter, all strategies in place
     MS + 4 idle          five interpreters, four [[true] whileTrue] idlers
     MS + 4 busy          five interpreters, four sweep-hand analogues

   Each benchmark measures a typical programming-environment activity,
   implemented in Smalltalk and executed by the interpreter.  Repetition
   counts are fixed so the baseline column lands near the paper's Table 2
   (in simulated seconds at 1 MIPS); the interesting output is the
   overhead of the other three states. *)

type state = Baseline | Ms_uni | Ms_idle | Ms_busy

let state_name = function
  | Baseline -> "Baseline BS on multiprocessor"
  | Ms_uni -> "MS on multiprocessor"
  | Ms_idle -> "MS with four idle Processes"
  | Ms_busy -> "MS with four busy Processes"

let all_states = [ Baseline; Ms_uni; Ms_idle; Ms_busy ]

let config_of_state ?(config_tweak = fun c -> c) state =
  let base =
    match state with
    | Baseline -> Config.baseline_bs ()
    | Ms_uni -> Config.ms ~processors:1 ()
    | Ms_idle | Ms_busy -> Config.ms ~processors:5 ()
  in
  config_tweak base

(* Workload classes installed on top of the kernel for the benchmarks. *)
let benchmark_classes = {st|
CLASS BenchScratch SUPER Object IVARS a b c
METHODS BenchScratch
seed
    ^a
!

CLASS MacroBenchmarks SUPER Object IVARS classes
METHODS MacroBenchmarks
setUp
    classes := Array with: Point with: Association with: Interval
!
readAndWriteClassOrganization
    "build each class's organization text from its selectors, then parse
     it back into a dictionary of categories"
    | ws text rs word dict total |
    total := 0.
    classes do: [:cls |
        ws := WriteStream on: (String new: 64).
        cls selectors do: [:sel |
            ws nextPutAll: sel asString.
            ws space].
        text := ws contents.
        dict := Dictionary new.
        rs := ReadStream on: text.
        [rs atEnd] whileFalse: [
            word := rs upTo: $ .
            word isEmpty ifFalse: [
                dict at: word size put: word]].
        total := total + dict size].
    ^total
!
printClassDefinition
    | total |
    total := 0.
    classes do: [:cls | total := total + cls definitionString size].
    ^total
!
printClassHierarchy
    ^Magnitude hierarchyString size + Stream hierarchyString size
!
findAllCalls
    ^(Mirror sendersOf: #printString) size
!
findAllImplementors
    ^(Mirror implementorsOf: #printString) size
      + (Mirror implementorsOf: #do:) size
      + (Mirror implementorsOf: #size) size
      + (Mirror implementorsOf: #zork) size
!
createInspectorView
    | total |
    total := 0.
    total := total + (Inspector on: (Point x: 3 y: 4)) fieldCount.
    total := total + (Inspector on: #(1 2 3 4 5 6 7 8)) fieldCount.
    total := total + (Inspector on: (Interval from: 1 to: 9)) fieldCount.
    ^total
!
compileDummyMethod
    Mirror compile: 'dummy: x
    | t |
    t := x + 1.
    t > 0 ifTrue: [^t * 2].
    ^0' into: BenchScratch classSide: false.
    ^BenchScratch new dummy: 20
!
decompileClass
    | total |
    total := 0.
    Point selectors do: [:sel |
        total := total + (Point methodAt: sel) decompile size].
    Interval selectors do: [:sel |
        total := total + (Interval methodAt: sel) decompile size].
    ^total
!
|st}

type benchmark = {
  key : string;
  title : string;               (* the paper's column label *)
  body : string;                (* one iteration; [bench] is the receiver *)
  reps : int;                   (* repetitions per run *)
  paper : float array;          (* Table 2 row: BS, MS, idle, busy (seconds) *)
}

let benchmarks = [
  { key = "organization";
    title = "read and write class organization";
    body = "bench readAndWriteClassOrganization";
    reps = 31;
    paper = [| 14.3; 15.6; 16.3; 18.4 |] };
  { key = "definition";
    title = "print class definition";
    body = "bench printClassDefinition";
    reps = 22;
    paper = [| 8.1; 8.6; 8.8; 11.1 |] };
  { key = "hierarchy";
    title = "print class hierarchy";
    body = "bench printClassHierarchy";
    reps = 20;
    paper = [| 10.0; 11.4; 14.3; 16.4 |] };
  { key = "calls";
    title = "find all calls";
    body = "bench findAllCalls";
    reps = 18;
    paper = [| 26.0; 27.0; 27.0; 33.0 |] };
  { key = "implementors";
    title = "find all implementors";
    body = "bench findAllImplementors";
    reps = 6;
    paper = [| 8.2; 8.9; 9.0; 11.2 |] };
  { key = "inspector";
    title = "create inspector view";
    body = "bench createInspectorView";
    reps = 23;
    paper = [| 6.1; 6.7; 7.4; 10.0 |] };
  { key = "compile";
    title = "compile dummy method";
    body = "bench compileDummyMethod";
    reps = 746;
    paper = [| 22.0; 25.0; 27.0; 31.0 |] };
  { key = "decompile";
    title = "decompile class";
    body = "bench decompileClass";
    reps = 49;
    paper = [| 12.7; 14.1; 16.1; 18.2 |] };
]

(* --- running --- *)

type cell = {
  seconds : float;       (* simulated seconds for the timed run *)
  cycles : int;
  scavenges : int;
}

(* Prepare a VM in [state]: benchmark classes loaded, background Processes
   spawned (they start running during the first timed evaluation). *)
let prepare_vm ?config_tweak state =
  let vm = Vm.create (config_of_state ?config_tweak state) in
  Vm.load_classes vm benchmark_classes;
  (match state with
   | Baseline | Ms_uni -> ()
   | Ms_idle -> ignore (Workloads.spawn_idle vm 4)
   | Ms_busy -> ignore (Workloads.spawn_busy vm 4));
  vm

(* Run one benchmark on a prepared VM; returns the timed cell. *)
let run_on vm (b : benchmark) =
  let src =
    Printf.sprintf
      "| bench |\nbench := MacroBenchmarks new.\nbench setUp.\n%d timesRepeat: [%s].\n^0"
      b.reps b.body
  in
  let before_cycles = Vm.cycles vm in
  let before_scav = Heap.scavenge_count vm.Vm.heap in
  (match Vm.run ~watch:(Vm.spawn vm ~priority:5 ~name:b.key src) vm with
   | Vm.Finished _ -> ()
   | Vm.Deadlock -> failwith ("benchmark deadlocked: " ^ b.key)
   | Vm.Cycle_limit -> failwith ("benchmark ran away: " ^ b.key));
  let cycles = Vm.cycles vm - before_cycles in
  { seconds = Cost_model.seconds vm.Vm.config.Config.cost cycles;
    cycles;
    scavenges = Heap.scavenge_count vm.Vm.heap - before_scav }

(* Run the full Table 2: every benchmark in every state.  One VM per state,
   benchmarks run back to back (as the originals were). *)
let run_table2 ?config_tweak ?(benchmarks = benchmarks) () =
  List.map
    (fun state ->
      let vm = prepare_vm ?config_tweak state in
      let cells = List.map (fun b -> (b, run_on vm b)) benchmarks in
      (state, cells))
    all_states
