(* Whole-VM schedule exploration.

   {!Explore} owns the generic machinery (decisions, PRNG, replay,
   shrinking); this module supplies the world to run them in: build a
   VM, install the policy, evaluate a deterministic workload against
   busy background Processes, and extract the observables a correct
   schedule may not change.  Each execution bootstraps a fresh VM whose
   heap reuses the previous execution's zeroed word array.

   The observables are chosen for schedule invariance.  The result and
   the transcript are what the program computes; the census counts the
   objects reachable from stable roots (globals, specials, the result) —
   unlike whole-heap statistics, which legitimately vary with scavenge
   timing, per-processor recycling and process migration.  On top of the
   oracle, the strict sanitizer is armed throughout and the scheduler's
   invariants are re-checked after the run.

   [run_on] is the one place a judged whole-VM execution is built, run
   and classified: explore seeds, DPOR, replays, deadlock hunts and the
   fault campaigns over the macro benchmarks ([Fault_study]) all go
   through it, so every structured failure a run can raise is caught
   here and reported as an outcome error. *)

type setup = {
  config : Config.t;
  busy : int;
  source : string;
  classes : string;
  reference_setup : setup option;
  label : string;
}

(* A deterministic workload: allocates Points and Arrays (the allocation
   lock), sends messages (method caches, free contexts), writes the
   transcript, and yields control often enough that forced preemptions
   and jitter have interleavings to shuffle. *)
let workload_source ~iterations =
  Printf.sprintf
    "| s p a | s := 0.\n\
     1 to: %d do: [:i |\n\
    \    p := Point x: i y: i + 1.\n\
    \    a := Array new: 8.\n\
    \    a at: 1 put: p.\n\
    \    s := s + p x + p y + i printString size.\n\
    \    i \\\\ 16 = 0 ifTrue: [Transcript show: 'x']].\n\
     s"
    iterations

let make_setup ?(processors = 5) ?(quick = false) ?reference_setup label tweak =
  let config =
    tweak { (Config.ms ~processors ()) with Config.sanitize = Sanitizer.Strict }
  in
  { config;
    busy = max 1 (processors - 1);
    source = workload_source ~iterations:(if quick then 24 else 60);
    classes = "";
    reference_setup;
    label }

let ms_setup ?processors ?quick () = make_setup ?processors ?quick "ms" Fun.id

let broken_unlocked_setup ?processors ?quick () =
  make_setup ?processors ?quick "bs-unlocked" (fun c ->
      { c with Config.locks_enabled = false })

let broken_ctx_setup ?processors ?quick () =
  make_setup ?processors ?quick "ctx-unbracketed" (fun c ->
      { c with
        Config.free_contexts = Config.Ctx_shared_locked;
        Config.debug_skip_ctx_lock = true })

(* MS on the work-stealing scheduler (E16), checked against the locked
   scheduler's unperturbed run: the oracle is differential, so any
   stealing run that computes a different result, transcript or census
   than the serialized queue is a steal-protocol bug. *)
let stealing_setup ?processors ?quick () =
  make_setup ?processors ?quick "stealing (vs locked reference)"
    ~reference_setup:(ms_setup ?processors ?quick ())
    (fun c -> { c with Config.scheduler = Config.Sched_stealing })

(* MS on the event-calendar engine (E17).  Like [stealing_setup], the
   oracle is differential against a scan-engine reference: parking idle
   processors changes lock timelines and exact cycle counts, but a
   calendar run computing a different result, transcript or census than
   the scan engine is an engine bug. *)
let calendar_setup ?processors ?quick () =
  make_setup ?processors ?quick "calendar engine (vs scan reference)"
    ~reference_setup:(ms_setup ?processors ?quick ())
    (fun c -> { c with Config.engine = Config.Engine_calendar })

(* The stealing scheduler with its deque-lock brackets removed: every
   deque mutation is unguarded, which the strict sanitizer must catch on
   the very first pick of any seed. *)
let broken_steal_setup ?processors ?quick () =
  make_setup ?processors ?quick "steal-unlocked" (fun c ->
      { c with
        Config.scheduler = Config.Sched_stealing;
        Config.debug_unlocked_steal = true })

(* Aggressive-GC variants for the incremental old-space collector (E18).
   The standard workload barely tenures, so it would leave the collector
   idle and the oracle vacuous; this one keeps a rotating window of
   arrays live across scavenges — with a one-scavenge tenure age and a
   tiny eden most of the churn tenures and then dies in old space, so
   cycles start and sweep real garbage while the program runs. *)
let gc_workload_source ~iterations =
  Printf.sprintf
    "| keep s | keep := Array new: 64. s := 0.\n\
     1 to: %d do: [:i |\n\
    \    keep at: i \\\\ 64 + 1 put: (Array new: 16).\n\
    \    s := s + i \\\\ 1000.\n\
    \    i \\\\ 32 = 0 ifTrue: [Transcript show: 'g']].\n\
     s"
    iterations

let make_gc_setup ?processors ?(quick = false) ?reference_setup label tweak =
  let setup =
    make_setup ?processors ~quick ?reference_setup label (fun c ->
        tweak
          { c with
            Config.eden_words = 2048;
            survivor_words = 1024;
            tenure_age = 1;
            (* roomy enough that the collector-free reference side of the
               differential also finishes the workload *)
            old_words = (if quick then 128 else 192) * 1024 })
  in
  { setup with
    source = gc_workload_source ~iterations:(if quick then 1000 else 2000) }

(* The collector-free run of the identical configuration: same GC
   pressure, no collector — both sides of the differential oracle. *)
let major_reference_setup ?processors ?quick () =
  make_gc_setup ?processors ?quick "major reference" Fun.id

(* Checked against [major_reference_setup], the oracle is differential:
   collector slices perturb lock timelines and clock totals, but
   mark-sweep never moves or frees a reachable object, so a collector
   run computing a different result, transcript or census than the
   collector-free reference is a collector bug.

   The default budget is kept: root scans are atomic within a slice
   (root cells live on the OCaml side, where stores are unbarriered, so
   the termination rescan cannot be split), and under firefly costs the
   image's root scan runs ~9K cycles — any budget whose four-budget
   sanitizer ceiling sits below that trips on the first slice.  The
   workload is long enough for a whole cycle to complete under the
   slice pacing. *)
let major_setup ?processors ?quick () =
  make_gc_setup ?processors ?quick
    "major collector (vs collector-free reference)"
    ~reference_setup:(major_reference_setup ?processors ?quick ())
    (fun c -> { c with Config.major_enabled = true })

(* The collector with its write barrier replaced by the reporting probe
   ([Config.debug_skip_major_barrier]): the strict sanitizer must catch
   the first old-pointer store made while marking is in flight. *)
let broken_major_setup ?processors ?quick () =
  make_gc_setup ?processors ?quick "major-nobarrier" (fun c ->
      { c with
        Config.major_enabled = true;
        debug_skip_major_barrier = true })

let setups =
  [ ("ms", ms_setup);
    ("stealing", stealing_setup);
    ("calendar", calendar_setup);
    ("major", major_setup);
    ("bs-unlocked", broken_unlocked_setup);
    ("ctx-unbracketed", broken_ctx_setup);
    ("steal-unlocked", broken_steal_setup);
    ("major-nobarrier", broken_major_setup) ]

(* The spin watchdog's defaults for fault runs.  The bound (64 Delay
   quanta = 9600 firefly cycles) sits far above any legitimate
   contention wait and above the injected transient-stall bounds, so
   only a lock held by a dead processor trips it. *)
let default_watchdog = 64
let default_backoff = 4

(* MS with the spin watchdog armed, for deadlock hunts and replays. *)
let fault_setup ?processors ?quick ?(watchdog_quanta = default_watchdog)
    ?(backoff_quanta = default_backoff) () =
  make_setup ?processors ?quick "faults" (fun c ->
      { c with Config.watchdog_quanta; Config.backoff_quanta })

type observables = {
  result : string;
  transcript : string;
  census : Verify.census;
}

type outcome = {
  obs : observables option;
  error : string option;
  violations : int;
  cycles : int;
  schedule : Explore.schedule;
  queries : int;
  deadlock : Fault.deadlock_report option;
  fault_plan : Fault.plan;
}

(* Roots that exist at stable identities across runs of one program:
   the specials and every global Association. *)
let stable_roots vm =
  let u = vm.Vm.u in
  let globals =
    Hashtbl.fold (fun _ assoc acc -> assoc :: acc) u.Universe.globals []
  in
  u.Universe.nil :: u.Universe.true_ :: u.Universe.false_
  :: u.Universe.scheduler :: globals

(* Scheduler plumbing is reachable from the "Processor" global but is
   not schedule-invariant: where each background Process was preempted,
   the shape of its suspended context chain and how many iterations it
   completed all legitimately differ between interleavings.  The census
   stops at those classes and compares only program-level data. *)
let schedule_dependent vm =
  let c = vm.Vm.u.Universe.classes in
  let h = vm.Vm.heap in
  let process = c.Universe.process
  and method_context = c.Universe.method_context
  and block_context = c.Universe.block_context
  and processor_scheduler = c.Universe.processor_scheduler
  and linked_list = c.Universe.linked_list
  and semaphore = c.Universe.semaphore in
  fun o ->
    let cls = Heap.class_at h (Oop.addr o) in
    Oop.equal cls process || Oop.equal cls method_context
    || Oop.equal cls block_context
    || Oop.equal cls processor_scheduler
    || Oop.equal cls linked_list || Oop.equal cls semaphore

(* Class identity that survives snapshot/restore and holds across
   independently-bootstrapped images: the FNV-1a hash of the class's
   global name.  Census per-class keys default to class addresses, which
   are stable within one image but an accident of allocation order
   between images — exactly what the E19 replica fingerprints must not
   see.  Built by walking the sorted global names, so the mapping itself
   is deterministic; an unnamed class falls back to its address (none
   exist in the kernel image, and replica workloads only instantiate
   named classes). *)
let stable_class_key vm =
  let u = vm.Vm.u in
  let fnv s =
    let h = ref 0x811C9DC5 in
    String.iter
      (fun c -> h := ((!h lxor Char.code c) * 0x01000193) land max_int)
      s;
    !h
  in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun name ->
      match Universe.get_global u name with
      | Some v when Oop.is_ptr v -> Hashtbl.replace tbl v (fnv name)
      | _ -> ())
    (Universe.global_names u);
  fun cls ->
    match Hashtbl.find_opt tbl cls with
    | Some k -> k
    | None -> if Oop.is_ptr cls then Oop.addr cls else -1

(* Evaluate the workload on [vm] under [driver]'s policy (or the default
   when [None]) and collect the outcome. *)
let run_on vm ?faults setup driver =
  let san = Vm.sanitizer vm in
  if setup.classes <> "" then Vm.load_classes vm setup.classes;
  (match driver with
   | Some d -> Machine.set_policy vm.Vm.machine (Some (Explore.policy d))
   | None -> ());
  (match faults with
   | Some inj -> Vm.set_fault_injector vm (Some inj)
   | None -> ());
  ignore (Workloads.spawn_busy vm setup.busy);
  let finish ?deadlock ~cycles error obs =
    (* the run may have died mid-violation; disarm before post-mortem *)
    Sanitizer.set_armed san false;
    { obs;
      error;
      violations = Sanitizer.violation_count san;
      cycles;
      schedule =
        (match driver with Some d -> Explore.recorded d | None -> []);
      queries = (match driver with Some d -> Explore.queries d | None -> 0);
      deadlock;
      fault_plan =
        (match faults with Some inj -> Fault.injected inj | None -> []) }
  in
  let died ?deadlock error = finish ?deadlock ~cycles:0 (Some error) None in
  match Vm.eval vm setup.source with
  | result ->
      let cycles = Vm.cycles vm in
      (* a cycle still in flight leaves mid-sweep state the whole-heap
         check would misread — dead objects not yet swept still parse as
         allocated, and their fields point into already-swept holes.
         Complete it first; the checks below then see a cycle boundary *)
      (match vm.Vm.major with
       | Some mj when Major.phase mj <> Major.Idle ->
           ignore (Major.finish_cycle mj vm.Vm.shared.State.cm)
       | _ -> ());
      (* post-run checks run armed so problems count as violations *)
      let post_error =
        try
          Sanitizer.set_armed san true;
          Scheduler.check_invariants vm.Vm.shared.State.sched
            ~now:(Machine.max_clock vm.Vm.machine) ~vp:(-1);
          Sanitizer.set_armed san false;
          (match Verify.check vm.Vm.heap with
           | [] -> None
           | p :: _ ->
               Some (Format.asprintf "heap check: %a" Verify.pp_problem p))
        with Sanitizer.Violation msg ->
          Some msg
      in
      (match
         Verify.census vm.Vm.heap ~stop:(schedule_dependent vm)
           ~roots:(result :: stable_roots vm)
       with
       | census ->
           finish ~cycles post_error
             (Some
                { result = Vm.describe vm result;
                  transcript = Vm.transcript vm;
                  census })
       | exception Invalid_argument msg ->
           (* an oop outside allocated space: only a heap the check
              above rejected can hold one *)
           finish ~cycles (Some (Option.value post_error ~default:msg)) None)
  | exception Sanitizer.Violation msg -> died msg
  | exception (Vm.Error msg | State.Vm_error msg) -> died ("vm: " ^ msg)
  | exception Heap.Image_full msg -> died ("heap: " ^ msg)
  | exception Interp.Does_not_understand msg ->
      died ("doesNotUnderstand: " ^ msg)
  | exception Interp.Must_be_boolean ->
      died "mustBeBoolean: a conditional on a non-Boolean"
  | exception Fault.Deadlock_suspected r ->
      died ~deadlock:r ("deadlock suspected: " ^ Fault.describe_deadlock r)
  | exception Fault.Fatal info -> died (Fault.describe_fatal info)

(* Every run gets a fresh VM on recycled memory: the heap array goes back
   to [Heap]'s spare on the way out, normal or exceptional, zeroed to
   exactly what a fresh allocation holds.  The simulation has no other
   state, so identical inputs give identical runs; the outcome holds no
   reference to the VM (the census is plain ints), so nothing reads the
   memory after its release. *)
let run_driver ?faults setup driver =
  let vm = Vm.create setup.config in
  Fun.protect
    ~finally:(fun () -> Heap.release vm.Vm.heap)
    (fun () -> run_on vm ?faults setup driver)

let reference setup =
  run_driver (Option.value setup.reference_setup ~default:setup) None

let run_seed ?params setup ~seed =
  run_driver setup (Some (Explore.seeded ?params ~seed ()))

let run_schedule setup sched =
  run_driver setup (Some (Explore.replay sched))

let check ~reference o =
  match o.error with
  | Some e -> Some e
  | None ->
      if o.violations > 0 then
        Some (Printf.sprintf "%d sanitizer violation(s)" o.violations)
      else begin
        match (reference.obs, o.obs) with
        | Some r, Some x ->
            if r.result <> x.result then
              Some
                (Printf.sprintf "result diverged: %S vs reference %S" x.result
                   r.result)
            else if r.transcript <> x.transcript then
              Some
                (Printf.sprintf "transcript diverged: %S vs reference %S"
                   x.transcript r.transcript)
            else if r.census <> x.census then
              Some
                (Format.asprintf "heap census diverged: %a vs reference %a"
                   Verify.pp_census x.census Verify.pp_census r.census)
            else None
        | None, Some _ | None, None -> Some "reference run itself failed"
        | Some _, None -> Some "run died without an error"
      end

type counterexample = {
  seed : int option;
  what : string;
  original : Explore.schedule;
  shrunk : Explore.schedule;
  probes : int;
  reproduces : bool;
}

(* Shrink a failing schedule within [budget] replays, then replay the
   minimal one to confirm it.  The confirming replay also refreshes the
   failure description, which may have changed while shrinking. *)
let shrink_and_confirm ~budget ~reference ~log ?seed setup what original =
  let fails s = check ~reference (run_schedule setup s) <> None in
  let shrunk, probes = Explore.shrink ~run:fails ~budget original in
  let what, reproduces =
    match check ~reference (run_schedule setup shrunk) with
    | Some w -> (w, true)
    | None -> (what, false)
  in
  log
    (Printf.sprintf "  shrunk to %d decision(s) in %d replay(s): %s"
       (List.length shrunk) probes what);
  { seed; what; original; shrunk; probes; reproduces }

type report = {
  seeds_run : int;
  distinct : int;
  queries : int;
  perturbations : int;
  counterexamples : counterexample list;
}

let explore ?params ?(shrink_budget = 120) ?(first_seed = 0)
    ?(log = fun _ -> ()) setup ~seeds =
  let ref_outcome = reference setup in
  let fingerprints = Hashtbl.create 64 in
  let queries = ref 0 and perturbations = ref 0 in
  let counterexamples = ref [] in
  for seed = first_seed to first_seed + seeds - 1 do
    let o = run_seed ?params setup ~seed in
    queries := !queries + o.queries;
    perturbations := !perturbations + List.length o.schedule;
    Hashtbl.replace fingerprints (Explore.fingerprint o.schedule) ();
    match check ~reference:ref_outcome o with
    | None -> ()
    | Some what ->
        log
          (Printf.sprintf
             "seed %d fails after %d queries (%d perturbed): %s" seed
             o.queries (List.length o.schedule) what);
        counterexamples :=
          shrink_and_confirm ~budget:shrink_budget ~reference:ref_outcome
            ~log ~seed setup what o.schedule
          :: !counterexamples
  done;
  { seeds_run = seeds;
    distinct = Hashtbl.length fingerprints;
    queries = !queries;
    perturbations = !perturbations;
    counterexamples = List.rev !counterexamples }

(* --- systematic exploration (E20) -------------------------------------- *)

(* One execution for the systematic explorer: replay the forced prefix
   under a guided driver (which logs every preemption-point query, not
   just the perturbed ones) and flatten the outcome into the observable
   string the DFS dedupes on plus the oracle's verdict. *)
let run_guided setup sched =
  let d = Explore.guided sched in
  let o = run_driver setup (Some d) in
  (o, Explore.query_log d)

let obs_string o =
  match o.obs with
  | None -> "<died: " ^ Option.value o.error ~default:"?" ^ ">"
  | Some x ->
      Format.asprintf "%s|%s|%a" x.result x.transcript Verify.pp_census
        x.census

type dpor_report = {
  dpor_result : Explore.Dpor.result;
  dpor_counterexample : counterexample option;
      (* first failing schedule, shrunk and replay-confirmed *)
}

(* Systematically explore [setup]'s schedule space against the same
   reference as [explore].  The first failing schedule is shrunk and
   confirmed like a seeded counterexample (with no seed); the full
   failure list stays available in [dpor_result] (a broken config
   typically fails on the default schedule and on every reachable
   alternative). *)
let dpor ?mode ?max_branch ?max_flips ?budget ?(shrink_budget = 120)
    ?(log = fun _ -> ()) setup () =
  let ref_outcome = reference setup in
  let run sched =
    let o, xlog = run_guided setup sched in
    { Explore.Dpor.xlog;
      obs = obs_string o;
      failure = check ~reference:ref_outcome o }
  in
  let result =
    Explore.Dpor.systematic ?mode ?max_branch ?max_flips ?budget ~log ~run ()
  in
  let counterexample =
    match result.Explore.Dpor.failures with
    | [] -> None
    | (sched, what) :: _ ->
        log
          (Printf.sprintf "first failure (%d decision(s)): %s"
             (List.length sched) what);
        Some
          (shrink_and_confirm ~budget:shrink_budget ~reference:ref_outcome
             ~log setup what sched)
  in
  { dpor_result = result; dpor_counterexample = counterexample }

(* --- fault campaigns --------------------------------------------------- *)

(* Run the default schedule under a fault injector (no scheduling
   policy installed; fault queries are counted independently, so a
   policy could be composed on top without renumbering either trace). *)
let run_faults setup inj = run_driver ~faults:inj setup None

type deadlock_hunt = {
  hunt_seeds : int;  (* seeds actually run *)
  found_seed : int option;
  report : Fault.deadlock_report option;
  original_plan : Fault.plan;
  shrunk_plan : Fault.plan;
  hunt_probes : int;  (* replays spent shrinking *)
  replay_matches : bool;
}

(* Hunt for a watchdog-detected deadlock: run lock-campaign seeds until
   one trips the spin watchdog, delta-debug its honoured fault plan down
   to a minimal plan that still produces a deadlock on the same lock
   with the same holder, then replay the minimal plan twice more — the
   refreshed report and the confirming replay must agree exactly, which
   is what makes a dumped plan file a faithful reproducer. *)
let hunt_deadlock ?(params = Fault.params_of_campaign Fault.Lock)
    ?(shrink_budget = 120) ?(first_seed = 0) ?(log = fun _ -> ()) setup
    ~seeds =
  let none ~tried =
    { hunt_seeds = tried; found_seed = None; report = None;
      original_plan = []; shrunk_plan = []; hunt_probes = 0;
      replay_matches = false }
  in
  let rec search seed =
    if seed >= first_seed + seeds then None
    else begin
      let o = run_faults setup (Fault.seeded ~params ~seed ()) in
      match o.deadlock with
      | Some r -> Some (seed, r, o.fault_plan)
      | None -> search (seed + 1)
    end
  in
  match search first_seed with
  | None -> none ~tried:seeds
  | Some (seed, r0, plan) ->
      log
        (Printf.sprintf "seed %d (%d fault(s)): %s" seed (List.length plan)
           (Fault.describe_deadlock r0));
      let same_deadlock p =
        match (run_faults setup (Fault.replay p)).deadlock with
        | Some r ->
            r.Fault.lock = r0.Fault.lock && r.Fault.holder = r0.Fault.holder
        | None -> false
      in
      let shrunk, probes =
        Fault.shrink ~run:same_deadlock ~budget:shrink_budget plan
      in
      (* refresh the report from the minimal plan, then confirm that an
         independent replay reproduces it bit for bit *)
      let refreshed = (run_faults setup (Fault.replay shrunk)).deadlock in
      let confirmed = (run_faults setup (Fault.replay shrunk)).deadlock in
      let matches =
        match (refreshed, confirmed) with
        | Some a, Some b -> a = b
        | _ -> false
      in
      log
        (Printf.sprintf "  shrunk to %d fault(s) in %d replay(s); replay %s"
           (List.length shrunk) probes
           (if matches then "reproduces the report exactly" else "DIVERGED"));
      { hunt_seeds = seed - first_seed + 1;
        found_seed = Some seed;
        report = (match refreshed with Some _ -> refreshed | None -> Some r0);
        original_plan = plan;
        shrunk_plan = shrunk;
        hunt_probes = probes;
        replay_matches = matches }
