(* The simulated Firefly: an array of virtual processors, each with its own
   cycle clock.  The engine always steps the runnable processor with the
   smallest clock, which guarantees that operations on shared resources are
   processed in nondecreasing virtual-time order — the property the
   contention models in {!Spinlock} and {!Devices} rely on.

   The shared memory bus is modelled as a multiplicative slowdown on
   memory-heavy operations: with [n] processors actively executing, a memory
   operation costs [cost * (1 + beta * (n - 1))].  The Firefly's 16 KB
   private caches mean most traffic stays off the bus, hence the small
   default beta. *)

type vp_state =
  | Running          (* executing an interpreter *)
  | Idle             (* no Smalltalk Process to run; polling the ready queue *)
  | Halted           (* shut down *)

type vp = {
  id : int;
  mutable clock : int;
  mutable state : vp_state;
  mutable steps : int;            (* bytecodes executed, for reports *)
  mutable spin_cycles : int;      (* cycles lost waiting for locks *)
  mutable gc_wait_cycles : int;   (* cycles lost parked for scavenges *)
  mutable fault_cycles : int;     (* cycles lost to injected faults *)
}

(* A scheduling policy perturbs the engine's decisions at its three
   preemption points: min-clock ties, lock acquisitions, and the release
   of a charged critical section.  [None] is the default deterministic
   policy (lowest id wins ties, no jitter, no forced preemption) — the
   explorer in {!Explore} installs a policy to drive the engine through
   alternative interleavings without touching the default path. *)
type scheduling_policy = {
  choose_tie : vp array -> vp;
      (* candidates share the minimal clock, id-ascending; pick one *)
  lock_jitter : vp:int -> lock:string -> now:int -> int;
      (* extra cycles to stall before an acquire; 0 = undisturbed *)
  preempt_after : vp:int -> lock:string -> now:int -> bool;
      (* request a reschedule after this critical section? *)
}

let default_policy =
  { choose_tie = (fun candidates -> candidates.(0));
    lock_jitter = (fun ~vp:_ ~lock:_ ~now:_ -> 0);
    preempt_after = (fun ~vp:_ ~lock:_ ~now:_ -> false) }

type t = {
  vps : vp array;
  cost : Cost_model.t;
  mutable bus_factor_num : int;   (* fixed-point bus multiplier, /1024 *)
  mutable policy : scheduling_policy option;
  forced_preempts : bool array;   (* per-vp: policy asked for a reschedule *)
  mutable injector : Fault.t option;
  pending_crashes : bool array;   (* per-vp: an injected crash to deliver *)
}

let active_count m =
  Array.fold_left
    (fun n vp -> match vp.state with Running | Idle -> n + 1 | Halted -> n)
    0 m.vps

(* Processors actually executing bytecodes; idle ones stay off the bus. *)
let running_count m =
  Array.fold_left
    (fun n vp -> match vp.state with Running -> n + 1 | Idle | Halted -> n)
    0 m.vps

(* Recompute the bus multiplier; called when a processor changes state. *)
let refresh_bus m =
  let extra = Int.max 0 (running_count m - 1) in
  let beta = m.cost.Cost_model.bus_beta in
  m.bus_factor_num <- 1024 + int_of_float (beta *. float_of_int extra *. 1024.)

let make ~processors cost =
  if processors < 1 then
    Fault.fatal ~vp:(-1) ~clock:0 "Machine.make: need at least 1 processor";
  let vps =
    Array.init processors (fun id ->
        { id; clock = 0; state = Running; steps = 0;
          spin_cycles = 0; gc_wait_cycles = 0; fault_cycles = 0 })
  in
  let m =
    { vps; cost; bus_factor_num = 1024; policy = None;
      forced_preempts = Array.make processors false;
      injector = None;
      pending_crashes = Array.make processors false }
  in
  refresh_bus m;
  m

let processors m = Array.length m.vps
let vp m i = m.vps.(i)

let set_policy m p = m.policy <- p
let policy m = m.policy

let flag_preempt m id =
  if id >= 0 && id < Array.length m.forced_preempts then
    m.forced_preempts.(id) <- true

let take_forced_preempt m id =
  if id >= 0 && id < Array.length m.forced_preempts
     && m.forced_preempts.(id)
  then begin
    m.forced_preempts.(id) <- false;
    true
  end
  else false

(* Install (or clear) the fault injector.  Orthogonal to the scheduling
   policy: a run may perturb schedules, inject faults, or both. *)
let set_injector m inj = m.injector <- inj
let injector m = m.injector

(* Neither a policy nor an injector: the plain timeline. *)
let unhooked m =
  match m.policy, m.injector with None, None -> true | _ -> false

(* An injected crash is flagged here and delivered by the engine at the
   end of the victim's current step, mirroring [flag_preempt]: the
   injection sites (scheduler checks, lock sections) cannot unwind the
   interpreter themselves. *)
let flag_crash m id =
  if id >= 0 && id < Array.length m.pending_crashes then
    m.pending_crashes.(id) <- true

let crash_pending m id =
  id >= 0 && id < Array.length m.pending_crashes && m.pending_crashes.(id)

(* Consume the lowest-id pending crash, if any. *)
let take_crash m =
  let n = Array.length m.pending_crashes in
  let rec scan i =
    if i >= n then None
    else if m.pending_crashes.(i) then begin
      m.pending_crashes.(i) <- false;
      Some i
    end
    else scan (i + 1)
  in
  scan 0

let set_state m vp state =
  (* A halted processor is dead for good: resurrecting it would let a
     crashed vp's replicated state (method cache, free contexts) leak
     back into the run after failover abandoned it. *)
  if vp.state = Halted && state <> Halted then
    Fault.fatal ~vp:vp.id ~clock:vp.clock
      "Machine.set_state: vp %d is halted and cannot be resumed" vp.id;
  vp.state <- state;
  refresh_bus m

(* Charge [cycles] of CPU-local work to [vp]. *)
let charge _m vp cycles = vp.clock <- vp.clock + cycles

(* Charge [cycles] of memory-heavy work, inflated by bus contention. *)
let charge_mem m vp cycles =
  vp.clock <- vp.clock + (cycles * m.bus_factor_num) asr 10

(* The runnable processor with the smallest clock, if any.  Ties go to
   the lowest id; an installed policy is consulted only when there are at
   least two minimal candidates, so the default run never queries it. *)
let min_runnable m =
  let best = ref None in
  Array.iter
    (fun vp ->
      match vp.state with
      | Running | Idle ->
          (match !best with
           | Some b when b.clock <= vp.clock -> ()
           | _ -> best := Some vp)
      | Halted -> ())
    m.vps;
  match m.policy, !best with
  | None, b | _, (None as b) -> b
  | Some p, Some b ->
      (* Count the minimal candidates first: the common case is a unique
         minimum, and materializing the tie array for it would put an
         allocation on every explorer engine event. *)
      let n = ref 0 in
      Array.iter
        (fun vp ->
          match vp.state with
          | (Running | Idle) when vp.clock = b.clock -> incr n
          | Running | Idle | Halted -> ())
        m.vps;
      if !n < 2 then Some b
      else begin
        let ties = Array.make !n b in
        let i = ref 0 in
        Array.iter
          (fun vp ->
            match vp.state with
            | (Running | Idle) when vp.clock = b.clock ->
                ties.(!i) <- vp;
                incr i
            | Running | Idle | Halted -> ())
          m.vps;
        Some (p.choose_tie ties)
      end

let max_clock m =
  let t = ref 0 in
  for i = 0 to Array.length m.vps - 1 do
    t := Int.max !t m.vps.(i).clock
  done;
  !t

(* Advance every live processor's clock to at least [t]; used after a
   stop-the-world pause so nobody resumes in the past. *)
let synchronize_clocks m t =
  Array.iter
    (fun vp ->
      match vp.state with
      | Halted -> ()
      | Running | Idle ->
          if vp.clock < t then begin
            vp.gc_wait_cycles <- vp.gc_wait_cycles + (t - vp.clock);
            vp.clock <- t
          end)
    m.vps
