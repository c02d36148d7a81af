(** Driving the schedule explorer ({!Explore}) against whole VMs.

    One {!setup} names a configuration, a background load and a
    deterministic workload expression.  A run builds a fresh VM (on the
    previous run's released, zeroed heap memory) with the strict
    sanitizer armed, optionally installs an exploring or replaying
    scheduling policy, evaluates the workload, and collects the
    observables a correct schedule may not change: the result, the
    transcript, the census of the heap reachable from stable roots, a
    clean heap verification and clean scheduler invariants.

    {!explore} runs N seeds against the unperturbed reference run's
    observables; any divergence or sanitizer violation is shrunk to a
    minimal decision trace and re-replayed to confirm it reproduces.

    Every judged whole-VM execution — explore seeds, DPOR, replays,
    deadlock hunts and the macro-benchmark fault campaigns
    ([Fault_study]) — is built, run and classified here: every
    structured failure the run raises becomes the outcome's [error]. *)

type setup = {
  config : Config.t;
  busy : int;  (** busy background Processes competing for the locks *)
  source : string;  (** the watched workload expression *)
  classes : string;
      (** class definitions (image-definition format) loaded before the
          busy Processes spawn; [""] for none *)
  reference_setup : setup option;
      (** the setup whose unperturbed run gives the reference observables,
          when not this one: the oracle is then differential across
          configurations (stealing against the locked scheduler, say),
          not just across schedules *)
  label : string;  (** the name mst's progress lines give it *)
}

(** The published MS configuration (strict sanitizer): exploration must
    find nothing.  [quick] shortens the workload for smoke tests. *)
val ms_setup : ?processors:int -> ?quick:bool -> unit -> setup

(** Every setup by its [mst explore --config] name, {!ms_setup} first:
    - [ms]: as above;
    - [stealing]: MS on the work-stealing scheduler (E16), referenced to
      a locked [ms]: any stealing run computing different observables
      than the serialized queue is a steal-protocol bug;
    - [calendar]: MS on the event-calendar engine (E17), referenced to a
      scan-engine [ms]: any calendar run computing different observables
      than the scan engine is an engine bug;
    - [major]: MS under aggressive GC pressure (one-scavenge tenure age,
      tiny eden, a churn workload that tenures most of its garbage) with
      the incremental old-space collector running (E18), referenced to
      the identical configuration and workload with the collector
      disabled: a collector run computing different observables than
      the collector-free reference is a collector bug.
    The rest are deliberately broken, and exploration must surface a
    sanitizer violation:
    - [bs-unlocked]: locking disabled on several processors, so nothing
      serializes the shared resources;
    - [ctx-unbracketed]: the shared free-context list with its lock
      bracket skipped ([Config.debug_skip_ctx_lock]), a guarded-mutation
      violation;
    - [steal-unlocked]: the stealing scheduler with its deque-lock
      brackets removed ([Config.debug_unlocked_steal]); the strict
      sanitizer must catch the first unguarded deque mutation of any
      seed;
    - [major-nobarrier]: the collector's write barrier replaced by the
      reporting probe ([Config.debug_skip_major_barrier]); the strict
      sanitizer must catch the first old-pointer store made while
      marking is in flight. *)
val setups :
  (string * (?processors:int -> ?quick:bool -> unit -> setup)) list

(** The spin watchdog's default bound for fault runs, in Delay quanta
    (64): far above any legitimate contention wait, so only a lock held
    by a dead processor trips it. *)
val default_watchdog : int

(** Fixed-interval retries before a contended spin backs off (4). *)
val default_backoff : int

(** MS with the spin watchdog armed ({!default_watchdog},
    {!default_backoff}), for deadlock hunts and fault-plan replays. *)
val fault_setup :
  ?processors:int -> ?quick:bool -> ?watchdog_quanta:int ->
  ?backoff_quanta:int -> unit -> setup

(** Roots that exist at stable identities across runs of one program:
    the specials and every global Association. *)
val stable_roots : Vm.t -> Oop.t list

(** The census stop predicate that fences off scheduler plumbing —
    Process objects, suspended context chains, the run queues — whose
    shape legitimately varies with the interleaving. *)
val schedule_dependent : Vm.t -> Oop.t -> bool

(** Class identity that survives snapshot/restore and holds across
    independently-bootstrapped images: each named class maps to the
    FNV-1a hash of its global name, the greatest by [String.compare] when
    it is bound under several (an unnamed class falls back to its
    address).  Pass as [Verify.census ~class_key] when censuses from
    different images are compared (E19). *)
val stable_class_key : Vm.t -> Oop.t -> int

(** What a schedule may not change. *)
type observables = {
  result : string;
  transcript : string;
  census : Verify.census;
}

type outcome = {
  obs : observables option;  (** [None] when the run died early *)
  error : string option;
      (** sanitizer violation, deadlock, fatal fault, VM error,
          unanswered message, non-Boolean conditional, old space
          exhausted (["heap: ..."]) or a failed post-run check *)
  violations : int;
  cycles : int;
      (** [Vm.cycles] when the workload returned, before the post-run
          checks; 0 when the run died *)
  schedule : Explore.schedule;  (** perturbations applied (empty on replay) *)
  queries : int;  (** preemption-point queries answered *)
  deadlock : Fault.deadlock_report option;
      (** the spin watchdog's verdict, when it ended the run *)
  fault_plan : Fault.plan;  (** faults honoured (empty without an injector) *)
}

(** Run the unperturbed schedule (no policy installed) of the setup's
    [reference_setup], or of the setup itself when it has none. *)
val reference : setup -> outcome

(** Run one seeded exploration. *)
val run_seed : ?params:Explore.params -> setup -> seed:int -> outcome

(** Replay a recorded decision trace. *)
val run_schedule : setup -> Explore.schedule -> outcome

(** [check ~reference o] is [Some description] when [o] fails the
    differential oracle — an error, a sanitizer violation, or observables
    differing from the reference run's. *)
val check : reference:outcome -> outcome -> string option

(** A failing schedule, shrunk and replay-confirmed. *)
type counterexample = {
  seed : int option;  (** the failing seed; [None] for a systematic run *)
  what : string;  (** the oracle's description of the failure *)
  original : Explore.schedule;
  shrunk : Explore.schedule;
  probes : int;  (** replays spent shrinking *)
  reproduces : bool;  (** replaying [shrunk] fails the oracle again *)
}

type report = {
  seeds_run : int;
  distinct : int;  (** distinct perturbation schedules among the seeds *)
  queries : int;  (** preemption-point queries across all seeded runs *)
  perturbations : int;  (** non-default decisions across all seeded runs *)
  counterexamples : counterexample list;
}

(** Explore [seeds] seeds starting at [first_seed] (default 0).  Each
    failing seed is shrunk (bounded by [shrink_budget] replays, default
    120) and confirmed.  [log] receives one progress line per failure.
    The oracle compares each run against [reference setup]. *)
val explore :
  ?params:Explore.params -> ?shrink_budget:int -> ?first_seed:int ->
  ?log:(string -> unit) -> setup -> seeds:int -> report

(** {2 Systematic exploration (E20)} *)

(** Replay the forced prefix [sched] under a {!Explore.guided} driver and
    return the outcome together with the full preemption-point query log
    (what the systematic explorer branches on). *)
val run_guided : setup -> Explore.schedule -> outcome * Explore.qinfo array

type dpor_report = {
  dpor_result : Explore.Dpor.result;
  dpor_counterexample : counterexample option;
      (** the first failing schedule, shrunk and replay-confirmed *)
}

(** Systematically explore [setup]'s schedule space with
    {!Explore.Dpor.systematic}, the differential oracle supplying each
    execution's observable string and failure verdict.  [mode],
    [max_branch], [max_flips] and [budget] pass through to
    [systematic]; the reference is as in {!explore}.
    The first failing schedule (if any) is shrunk within [shrink_budget]
    replays and confirmed; the full failure list remains available in
    [dpor_result]. *)
val dpor :
  ?mode:Explore.Dpor.mode -> ?max_branch:int -> ?max_flips:int ->
  ?budget:int -> ?shrink_budget:int -> ?log:(string -> unit) -> setup -> unit ->
  dpor_report

(** Run the default schedule under a fault injector (no scheduling
    policy). *)
val run_faults : setup -> Fault.t -> outcome

type deadlock_hunt = {
  hunt_seeds : int;  (** seeds actually run *)
  found_seed : int option;
  report : Fault.deadlock_report option;
  original_plan : Fault.plan;
  shrunk_plan : Fault.plan;
  hunt_probes : int;  (** replays spent shrinking *)
  replay_matches : bool;
      (** two independent replays of [shrunk_plan] reproduce the same
          deadlock report bit for bit *)
}

(** Hunt for a watchdog-detected deadlock over lock-campaign seeds (the
    setup should arm the watchdog — see {!fault_setup}), shrink the
    first hit's fault plan to a minimal reproducer, and confirm it. *)
val hunt_deadlock :
  ?params:Fault.params -> ?shrink_budget:int -> ?first_seed:int ->
  ?log:(string -> unit) -> setup -> seeds:int -> deadlock_hunt
