(* Seeded fault injection: processor crashes, stalls, lock-holder
   failures, device timeouts and scavenge-worker deaths, sampled at the
   same instrumentation points the schedule explorer already drives.

   The design is {!Explore}'s.  A run answers a stream of injection
   queries — one per instrumentation point reached — and a seeded
   injector samples a fault at a few of them.  The faults actually
   applied are recorded as a sparse *fault plan* [(query index, fault)],
   a {!Plan} like the decision traces: an injector is the same
   {!Plan.stream} an explore driver wraps, plans are shrunk by the same
   delta debugging and saved in the same line format.  Because fault
   queries are counted separately from scheduling-policy queries, a
   fault plan composes with an {!Explore} schedule: the two streams
   perturb the same run without renumbering each other's indices.

   A recorded plan only contains faults that were *honoured*: an applier
   may decline a sampled fault (the last live processor refuses to crash,
   a scavenge with one live worker refuses to lose it), and declined
   samples never enter the plan, so a replay re-applies exactly the
   faults the seeded run committed. *)

(* A release time far enough in the future that no simulated clock ever
   reaches it: the timeline encoding of "held by a dead processor". *)
let never = max_int / 4

type fault =
  | Vp_crash                  (* processor fails at its next sched check *)
  | Vp_stall of int           (* processor loses N cycles (e.g. ECC stutter) *)
  | Holder_stall of int       (* lock holder keeps the lock N extra cycles *)
  | Holder_crash              (* lock holder dies inside the section *)
  | Device_timeout of int     (* device wedges for N cycles *)
  | Worker_crash of int       (* scavenge worker K dies at a barrier *)
  | Replica_crash of int      (* replica K dies at a log-entry boundary
                                 (E19; resolved modulo live replicas) *)

type plan = fault Plan.t

(* Which instrumentation point is asking.  Each fault kind belongs to one
   point; a replayed fault of the wrong kind for its query is dropped
   rather than derailing the run ({!Plan.next}).
   [Log_entry] is queried by the E19 cluster manager once per replica at
   every wave boundary of the shared command log — the only place a
   whole simulated machine is allowed to die, so what a crash leaves
   behind is a prefix of applied log entries, never a half-applied
   command. *)
type point = Sched_check | Lock_acquire | Device_op | Gc_barrier | Log_entry

(* One closed function per point, so a replayed query passes its filter
   to {!Plan.next} without allocating a closure. *)
let matches_point = function
  | Sched_check -> (function Vp_crash | Vp_stall _ -> true | _ -> false)
  | Lock_acquire ->
      (function Holder_stall _ | Holder_crash -> true | _ -> false)
  | Device_op -> (function Device_timeout _ -> true | _ -> false)
  | Gc_barrier -> (function Worker_crash _ -> true | _ -> false)
  | Log_entry -> (function Replica_crash _ -> true | _ -> false)

type params = {
  crash_permil : int;
  stall_permil : int;
  stall_bound : int;
  holder_stall_permil : int;
  holder_stall_bound : int;
  holder_crash_permil : int;
  device_permil : int;
  device_bound : int;
  worker_crash_permil : int;
  replica_crash_permil : int;  (* per (replica, wave-boundary) query (E19) *)
  max_faults : int;  (* cap on honoured faults per run *)
}

let no_faults =
  { crash_permil = 0; stall_permil = 0; stall_bound = 0;
    holder_stall_permil = 0; holder_stall_bound = 0;
    holder_crash_permil = 0; device_permil = 0; device_bound = 0;
    worker_crash_permil = 0; replica_crash_permil = 0; max_faults = 0 }

(* Campaigns: which family of faults a study run samples.  Per-point
   rates are chosen against very different query frequencies — sched
   checks fire thousands of times per benchmark, GC barriers a handful —
   so the permil values are not comparable across kinds.  [Replica] is
   the cluster-level campaign: its queries come once per replica per
   wave boundary, a few dozen per run. *)
type campaign = Crash | Stall | Lock | Device | Gc | Mixed | Replica

let campaigns =
  [ ("crash", Crash); ("stall", Stall); ("lock", Lock); ("device", Device);
    ("gc", Gc); ("mixed", Mixed); ("replica", Replica) ]

let campaign_name c = fst (List.find (fun (_, c') -> c' = c) campaigns)

let params_of_campaign = function
  | Crash -> { no_faults with crash_permil = 3; max_faults = 1 }
  | Stall ->
      { no_faults with stall_permil = 40; stall_bound = 5000; max_faults = 6 }
  | Lock ->
      { no_faults with
        holder_stall_permil = 25; holder_stall_bound = 4000;
        holder_crash_permil = 6; max_faults = 4 }
  | Device ->
      { no_faults with device_permil = 60; device_bound = 6000; max_faults = 8 }
  | Gc -> { no_faults with worker_crash_permil = 400; max_faults = 4 }
  | Mixed ->
      { crash_permil = 1; stall_permil = 20; stall_bound = 3000;
        holder_stall_permil = 8; holder_stall_bound = 3000;
        holder_crash_permil = 2; device_permil = 15; device_bound = 4000;
        worker_crash_permil = 150; replica_crash_permil = 0; max_faults = 8 }
  | Replica -> { no_faults with replica_crash_permil = 120; max_faults = 1 }

let default_params = params_of_campaign Mixed

(* --- injectors --- *)

type t = (fault, params) Plan.stream

let seeded ?(params = default_params) ~seed () = Plan.seeded ~seed params
let replay = Plan.replaying
let injected = Plan.recorded

module Rng = Plan.Rng

(* Sample a fault for one query of [point] from the seed. *)
let gen_at point rng p =
  match point with
  | Sched_check ->
      if Rng.chance rng p.crash_permil then Some Vp_crash
      else if Rng.chance rng p.stall_permil then
        Some (Vp_stall (1 + Rng.below rng (Int.max 1 p.stall_bound)))
      else None
  | Lock_acquire ->
      if Rng.chance rng p.holder_crash_permil then Some Holder_crash
      else if Rng.chance rng p.holder_stall_permil then
        Some (Holder_stall (1 + Rng.below rng (Int.max 1 p.holder_stall_bound)))
      else None
  | Device_op ->
      if Rng.chance rng p.device_permil then
        Some (Device_timeout (1 + Rng.below rng (Int.max 1 p.device_bound)))
      else None
  | Gc_barrier ->
      if Rng.chance rng p.worker_crash_permil then
        (* worker index resolved modulo the live workers by the applier *)
        Some (Worker_crash (Rng.below rng 64))
      else None
  | Log_entry ->
      if Rng.chance rng p.replica_crash_permil then
        (* replica index resolved modulo the live replicas by the applier *)
        Some (Replica_crash (Rng.below rng 64))
      else None

(* Answer one injection query.  Returns a *candidate* fault: the caller
   applies it only if its local guards allow (and then must call
   {!applied} so the plan records it).  A seeded run stops sampling once
   [max_faults] faults were honoured. *)
let at t point =
  Plan.query t ~accept:(matches_point point) ~gen:(fun rng p ->
      if Plan.applied_count t >= p.max_faults then None else gen_at point rng p)

let applied = Plan.applied

(* --- structured failure reports --- *)

(* The spin watchdog's verdict: who has been holding the lock, who gave
   up waiting, and when.  [waited] is the wait that tripped the bound, so
   a replayed report is comparable field for field. *)
type deadlock_report = {
  lock : string;
  holder : int;       (* vp id, or -1 for an engine-side section *)
  waiter : int;
  clock : int;        (* the waiter's clock when it gave up *)
  held_since : int;
  waited : int;
}

exception Deadlock_suspected of deadlock_report

let describe_deadlock r =
  (* a wait against [never] means the holder died with the lock *)
  let waited =
    if r.waited >= never / 2 then "forever"
    else Printf.sprintf "%d cycles" r.waited
  in
  Printf.sprintf
    "deadlock suspected on lock '%s': vp %d waited %s at clock %d \
     (holder vp %d, held since %d)"
    r.lock r.waiter waited r.clock r.holder r.held_since

(* A structured fatal error: what went wrong and where the simulation
   was.  Replaces bare [failwith]/[assert false] exits in the engine so a
   dying run can name the processor and clock, and the CLI can dump the
   trace-ring tail. *)
type fatal_info = { what : string; fatal_vp : int; fatal_clock : int }

exception Fatal of fatal_info

let fatal ~vp ~clock fmt =
  Printf.ksprintf
    (fun what -> raise (Fatal { what; fatal_vp = vp; fatal_clock = clock }))
    fmt

let describe_fatal i =
  Printf.sprintf "fatal: %s (vp %d, clock %d)" i.what i.fatal_vp i.fatal_clock

let () =
  Printexc.register_printer (function
    | Deadlock_suspected r -> Some (describe_deadlock r)
    | Fatal i -> Some (describe_fatal i)
    | _ -> None)

(* --- plan utilities: what {!Plan} needs to know about faults --- *)

(* Value shrinking halves the surviving durations. *)
let shrink ~run ?budget plan =
  Plan.shrink ~run ?budget plan ~smaller:(function
    | Vp_stall n when n > 1 -> Some (Vp_stall (n / 2))
    | Holder_stall n when n > 1 -> Some (Holder_stall (n / 2))
    | Device_timeout n when n > 1 -> Some (Device_timeout (n / 2))
    | _ -> None)

let format =
  { Plan.header = "mst fault plan v2";
    noun = "fault";
    encode =
      (function
      | Vp_crash -> ("crash", [])
      | Vp_stall n -> ("stall", [ n ])
      | Holder_stall n -> ("holdstall", [ n ])
      | Holder_crash -> ("holdcrash", [])
      | Device_timeout n -> ("timeout", [ n ])
      | Worker_crash k -> ("workercrash", [ k ])
      | Replica_crash k -> ("replicacrash", [ k ]));
    decode =
      (fun token args ->
        match (token, args) with
        | "crash", [] -> Some Vp_crash
        | "stall", [ n ] -> Some (Vp_stall n)
        | "holdstall", [ n ] -> Some (Holder_stall n)
        | "holdcrash", [] -> Some Holder_crash
        | "timeout", [ n ] -> Some (Device_timeout n)
        | "workercrash", [ k ] -> Some (Worker_crash k)
        | "replicacrash", [ k ] -> Some (Replica_crash k)
        | _ -> None) }

let pp = Plan.pp format
let save = Plan.save format
let load = Plan.load format
let load_replay = Plan.load_replay format
