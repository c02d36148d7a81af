(** The macro benchmarks (after McCall's standard Smalltalk-80
    benchmarks) and the four system states of the paper's evaluation:
    baseline BS, MS, MS + four idle Processes, MS + four busy Processes.

    Each benchmark is a typical programming-environment activity written
    in Smalltalk and executed by the interpreter; repetition counts are
    fixed so the baseline column lands near the paper's Table 2. *)

type state = Baseline | Ms_uni | Ms_idle | Ms_busy

val state_name : state -> string

val all_states : state list

val config_of_state : ?config_tweak:(Config.t -> Config.t) -> state -> Config.t

(** The workload classes (MacroBenchmarks, BenchScratch) in
    image-definition format. *)
val benchmark_classes : string

type benchmark = {
  key : string;
  title : string;  (** the paper's column label *)
  body : string;  (** one iteration; [bench] is the receiver *)
  reps : int;
  paper : float array;  (** the paper's Table 2 row: BS, MS, idle, busy *)
}

(** The eight benchmarks, in the paper's column order. *)
val benchmarks : benchmark list

type cell = {
  seconds : float;  (** simulated seconds for the timed run *)
  cycles : int;
  scavenges : int;
}

(** A VM in [state], with the workload classes loaded and the background
    Processes spawned. *)
val prepare_vm : ?config_tweak:(Config.t -> Config.t) -> state -> Vm.t

(** Run one benchmark on a prepared VM. *)
val run_on : Vm.t -> benchmark -> cell

(** The full Table 2: every benchmark in every state, one VM per state,
    benchmarks run back to back. *)
val run_table2 :
  ?config_tweak:(Config.t -> Config.t) ->
  ?benchmarks:benchmark list ->
  unit ->
  (state * (benchmark * cell) list) list
