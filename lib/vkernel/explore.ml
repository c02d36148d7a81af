(* Seeded schedule exploration: perturb the engine's scheduling decisions
   at the preemption points exposed by {!Machine.scheduling_policy},
   record the perturbations as a sparse decision trace, replay such a
   trace bit for bit, and shrink a failing trace to a minimal one.  The
   trace machinery (replay cursor, shrinking, files) is {!Plan}'s; this
   module supplies the decisions and how to sample them. *)

type decision =
  | Tie_pick of int
  | Lock_jitter of int
  | Force_preempt

type step = decision Plan.step

type schedule = decision Plan.t

type params = {
  tie_permil : int;
  jitter_permil : int;
  preempt_permil : int;
  jitter_bound : int;
}

(* Defaults chosen so a run perturbs enough to change the interleaving
   but traces stay short enough to shrink quickly. *)
let default_params =
  { tie_permil = 300; jitter_permil = 100; preempt_permil = 40;
    jitter_bound = 64 }

(* --- drivers --- *)

(* Seeded drivers sample from {!Fault.Rng}, the stable generator fault
   injection shares. *)
type mode =
  | Seeded of Fault.Rng.t * params
  | Replay of decision Plan.cursor

(* The query log a guided driver keeps for the systematic explorer: one
   entry per preemption-point query, whatever was decided there.  [Qtie]
   carries the candidate vp ids in the order they were offered; the
   other two name the lock whose acquire (or charged-section exit) the
   query guards. *)
type qkind =
  | Qtie of int array
  | Qacquire of string
  | Qexit of string

type qinfo = { q : int; kind : qkind; qvp : int; qnow : int }

type driver = {
  mode : mode;
  trace : Trace.t option;
  mutable queries : int;
  mutable last_index : int;  (* pre-increment index of the last query *)
  mutable rev_recorded : step list;
  log_all : bool;  (* guided drivers log every query, not just applied ones *)
  mutable rev_log : qinfo list;
}

let driver ?trace mode =
  { mode; trace; queries = 0; last_index = -1; rev_recorded = [];
    log_all = false; rev_log = [] }

let seeded ?(params = default_params) ?trace ~seed () =
  driver ?trace (Seeded (Fault.Rng.make seed, params))

let replay ?trace sched = driver ?trace (Replay (Plan.cursor sched))

(* A replaying driver that additionally records every query it answers —
   the raw material for the systematic (DPOR) explorer, which needs to
   see the whole decision space of a run, not only the perturbed
   points. *)
let guided ?trace sched = { (replay ?trace sched) with log_all = true }

let recorded d = List.rev d.rev_recorded
let queries d = d.queries
let query_log d = Array.of_list (List.rev d.rev_log)

let describe = function
  | Tie_pick k -> Printf.sprintf "tie pick %d" k
  | Lock_jitter j -> Printf.sprintf "jitter %d" j
  | Force_preempt -> "force preempt"

(* Record an applied decision at the index of the query that produced
   it.  [last_index] is the *pre-increment* query number stashed by
   {!decide} — recording the post-increment count here would shift every
   decision one query late on replay, where {!decide} matches the
   pre-increment number. *)
let applied d ~vp ~now ~resource decision =
  let index = d.last_index in
  d.rev_recorded <- { Plan.index; action = decision } :: d.rev_recorded;
  match d.trace with
  | None -> ()
  | Some t ->
      Trace.record t ~vp ~time:now ~kind:Trace.Sched_decision
        ~resource
        ~detail:(Printf.sprintf "#%d %s" index (describe decision))

(* Answer one preemption-point query.  [gen] samples a decision from the
   seed (None = leave the default); replay applies the recorded decision
   if one names this query index and [accept] takes its variant. *)
let decide d ~accept ~gen =
  let q = d.queries in
  d.queries <- q + 1;
  d.last_index <- q;
  match d.mode with
  | Seeded (rng, params) -> gen rng params
  | Replay c -> Plan.next c q ~accept

let policy d =
  (* Log the query about to be answered (guided drivers only).  Must run
     before {!decide} bumps the counter so the logged [q] names the same
     index a forced decision would be matched against. *)
  let log_query kind ~vp ~now =
    if d.log_all then
      d.rev_log <- { q = d.queries; kind; qvp = vp; qnow = now } :: d.rev_log
  in
  let choose_tie candidates =
    let n = Array.length candidates in
    log_query
      (Qtie (Array.map (fun vp -> vp.Machine.id) candidates))
      ~vp:candidates.(0).Machine.id ~now:candidates.(0).Machine.clock;
    let picked =
      decide d
        ~accept:(function Tie_pick _ -> true | _ -> false)
        ~gen:(fun rng params ->
          if Fault.Rng.chance rng params.tie_permil then
            let k = Fault.Rng.below rng n in
            if k = 0 then None else Some (Tie_pick k)
          else None)
    in
    match picked with
    | Some (Tie_pick k) ->
        let k = min (max k 0) (n - 1) in
        let vp = candidates.(k) in
        if k <> 0 then
          applied d ~vp:vp.Machine.id ~now:vp.Machine.clock
            ~resource:"schedule" (Tie_pick k);
        vp
    | _ -> candidates.(0)
  in
  let lock_jitter ~vp ~lock ~now =
    log_query (Qacquire lock) ~vp ~now;
    let picked =
      decide d
        ~accept:(function Lock_jitter _ -> true | _ -> false)
        ~gen:(fun rng params ->
          if params.jitter_bound > 0
             && Fault.Rng.chance rng params.jitter_permil
          then Some (Lock_jitter (1 + Fault.Rng.below rng params.jitter_bound))
          else None)
    in
    match picked with
    | Some (Lock_jitter j) when j > 0 ->
        applied d ~vp ~now ~resource:lock (Lock_jitter j);
        j
    | _ -> 0
  in
  let preempt_after ~vp ~lock ~now =
    log_query (Qexit lock) ~vp ~now;
    let picked =
      decide d
        ~accept:(function Force_preempt -> true | _ -> false)
        ~gen:(fun rng params ->
          if Fault.Rng.chance rng params.preempt_permil then Some Force_preempt
          else None)
    in
    match picked with
    | Some Force_preempt ->
        applied d ~vp ~now ~resource:lock Force_preempt;
        true
    | _ -> false
  in
  { Machine.choose_tie; lock_jitter; preempt_after }

(* --- schedule utilities: what {!Plan} needs to know about decisions --- *)

let fingerprint =
  Plan.fingerprint ~code:(function
    | Tie_pick k -> (k lsl 2) lor 1
    | Lock_jitter j -> (j lsl 2) lor 2
    | Force_preempt -> 3)

(* Value shrinking halves jitters and pulls tie picks toward the default
   candidate. *)
let shrink ~run ?budget sched =
  Plan.shrink ~run ?budget sched ~smaller:(function
    | Tie_pick k when k > 1 -> Some (Tie_pick (k / 2))
    | Lock_jitter j when j > 1 -> Some (Lock_jitter (j / 2))
    | _ -> None)

let format =
  { Plan.header = "mst decision trace v1";
    noun = "decision";
    index_is = "preemption-point number";
    encode =
      (function
      | Tie_pick k -> ("tie", [ k ])
      | Lock_jitter j -> ("jitter", [ j ])
      | Force_preempt -> ("preempt", []));
    decode =
      (fun token args ->
        match (token, args) with
        | "tie", [ k ] -> Some (Tie_pick k)
        | "jitter", [ j ] -> Some (Lock_jitter j)
        | "preempt", [] -> Some Force_preempt
        | _ -> None) }

let pp = Plan.pp format
let save = Plan.save format
let load = Plan.load format
let load_replay = Plan.load_replay format

(* --- systematic exploration: dynamic partial-order reduction (E20) ---

   Seeded exploration samples the schedule space; this explorer walks it.
   A run under a {!guided} driver is summarized by its query log; because
   the simulation is deterministic, the log defines a tree: every query
   is a potential choice point, and re-running with a forced decision
   prefix replays the run bit for bit up to the first change.

   The walk is a DFS over forced prefixes, run-to-completion style (as in
   stateless model checkers such as DSCheck): execute, analyse, backtrack
   to the deepest choice point with unexplored alternatives, re-execute.
   Two modes share the skeleton:

   - [Brute] inserts every alternative at every choice point up front:
     all non-default tie picks, one canonical "defer past the next
     conflicting acquire" jitter per lock acquire, one forced preemption
     per section exit.  Within the depth/flip bounds this enumerates the
     whole decision tree — the ground truth the oracle test compares
     against.

   - [Dpor] starts with no alternatives and inserts them only where the
     executed run shows a *race*: two acquires of the same lock by
     different vps with no third acquire between them.  Reversing a race
     needs the later vp to reach the lock first, which in this engine
     (steps are processed in min-clock order, so a lock's serialization
     order is its acquires' step order) means scheduling the later vp
     earlier: the insertion point is the last min-clock tie where it was
     a candidate, or failing that, a jitter at the earlier vp's previous
     acquire sized to push it past the later acquire's clock.  Everything
     else — tie picks that reorder independent steps, preemptions that
     only migrate Processes, defers with no conflicting successor — is
     pruned, which is exactly the partial-order reduction.

   Sleep sets (Godefroid) cut the remaining redundancy, adapted to
   run-to-completion replay: when the subtree of an alternative that
   moved operation (vp, lock) forward has been fully explored, siblings
   at that choice point inherit the operation in their sleep set, and an
   insertion whose moved operation is asleep is skipped; a sleeping
   operation is woken by the next acquire of the same lock on the path,
   after which it may be inserted again. *)

module Dpor = struct
  type exec = {
    xlog : qinfo array;
    obs : string;
    failure : string option;
  }

  type mode = Brute | Dpor

  type stats = {
    executions : int;
    distinct_obs : int;
    distinct_traces : int;
    races : int;
    pruned : int;  (* brute-eligible alternatives not explored *)
    sleep_skips : int;
    bounded : int;  (* insertions refused by the flip/branch bounds *)
    exhausted : bool;  (* the bounded space was fully explored *)
  }

  type result = {
    stats : stats;
    obs_witness : (string * schedule) list;
        (* one witness schedule per distinct observable, discovery order *)
    failures : (schedule * string) list;
  }

  (* The Mazurkiewicz-trace identity of a run: for every lock, the
     sequence of acquiring vps; independent (different-lock) operations
     hash the same regardless of their interleaving. *)
  let trace_fingerprint xlog =
    let per = Hashtbl.create 8 in
    Array.iter
      (fun e ->
        match e.kind with
        | Qacquire l ->
            let h =
              match Hashtbl.find_opt per l with
              | Some h -> h
              | None -> 0x811C9DC5
            in
            Hashtbl.replace per l
              (((h * 0x01000193) lxor (e.qvp + 1)) land max_int)
        | Qtie _ | Qexit _ -> ())
      xlog;
    let items =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) per [])
    in
    List.fold_left
      (fun h (k, v) ->
        let h = (h * 0x01000193) lxor Hashtbl.hash k in
        ((h * 0x01000193) lxor v) land max_int)
      0x811C9DC5 items

  (* One alternative at a choice point.  [moved] is the operation the
     alternative schedules earlier (for sleep sets); [eligible] marks the
     canonical alternatives a Brute walk enumerates, so the pruned
     statistic compares like with like. *)
  type alt = {
    dec : decision;
    moved : (int * string) option;
    eligible : bool;
  }

  type node = {
    nq : int;
    nres : string;  (* lock name; "schedule" for ties *)
    nvp : int;  (* acting vp; ties: the default candidate *)
    nnow : int;
    ncands : int array;  (* tie candidates ([||] elsewhere) *)
    nis_acquire : bool;
    base_sleep : (int * string) list;
    mutable cur : alt option;  (* non-default choice in the current branch *)
    mutable todo : alt list;
    mutable done_ : alt list;
    mutable eligible_n : int;
    mutable explored_eligible : int;
  }

  let same_dec a b = a.dec = b.dec

  let node_chosen_vp n =
    match n.cur with
    | Some { dec = Tie_pick k; _ } when k >= 0 && k < Array.length n.ncands ->
        n.ncands.(k)
    | _ -> n.nvp

  let defer_cap = 4  (* distinct race-specific jitters per acquire node *)

  let systematic ?(mode = Dpor) ?(max_branch = max_int) ?(max_flips = 2)
      ?(budget = 256) ?(defers = true) ?(preempts = true) ?(defer_slack = 1)
      ?(stop_on_failure = false) ?(log = fun _ -> ()) ~run () =
    (* stack of choice points, deepest first *)
    let stack = ref [] in
    let executions = ref 0 and races = ref 0 in
    let pruned = ref 0 and sleep_skips = ref 0 and bounded = ref 0 in
    let obs_tbl : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    let obs_witness = ref [] in
    let trace_tbl : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let failures = ref [] in
    let prefix_of stack =
      List.fold_left
        (fun acc n ->
          match n.cur with
          | Some a -> { Plan.index = n.nq; action = a.dec } :: acc
          | None -> acc)
        [] stack
      (* stack is deepest-first, so the fold emits index-ascending *)
    in
    let flips_below q =
      List.fold_left
        (fun acc n ->
          if n.nq < q && n.cur <> None then acc + 1 else acc)
        0 !stack
    in
    let known n a =
      List.exists (same_dec a) n.todo
      || List.exists (same_dec a) n.done_
      || (match n.cur with Some c -> same_dec c a | None -> false)
    in
    (* selecting an alternative at [n] truncates everything deeper, so
       the schedule it produces has exactly (flips strictly above n) + 1
       forced decisions.  [Tie_pick 0] is the identity decision — it
       replays the default branch the node was created from, which has
       already been explored — so it is never an alternative. *)
    let insert n a =
      if a.dec = Tie_pick 0 || known n a then ()
      else if flips_below n.nq + 1 > max_flips then incr bounded
      else
        match a.moved with
        | Some op
          when List.mem op n.base_sleep
               || List.exists
                    (fun d -> d.moved = Some op)
                    n.done_ ->
            incr sleep_skips
        | _ -> n.todo <- a :: n.todo
    in
    (* Brute-eligible alternatives of a log entry, [idx] its log
       position (used to find the next conflicting acquire). *)
    let eligible_alts xlog idx e =
      match e.kind with
      | Qtie cands ->
          List.init
            (Array.length cands - 1)
            (fun k ->
              { dec = Tie_pick (k + 1); moved = None; eligible = true })
      | Qacquire l when defers ->
          let rec next i =
            if i >= Array.length xlog then None
            else
              match xlog.(i).kind with
              | Qacquire l' when l' = l && xlog.(i).qvp <> e.qvp ->
                  Some xlog.(i)
              | _ -> next (i + 1)
          in
          (match next (idx + 1) with
           | Some e' ->
               let j = max 1 (e'.qnow - e.qnow + defer_slack) in
               [ { dec = Lock_jitter j; moved = Some (e'.qvp, l);
                   eligible = true } ]
           | None -> [])
      | Qexit _ when preempts ->
          [ { dec = Force_preempt; moved = None; eligible = true } ]
      | Qacquire _ | Qexit _ -> []
    in
    (* Extend the stack with choice points for the log entries past the
       current deepest node, propagating the sleep set along the path
       (an acquire of a lock wakes every operation sleeping on it). *)
    let extend xlog =
      let from_q = match !stack with [] -> -1 | n :: _ -> n.nq in
      let sleep =
        ref
          (match !stack with
           | [] -> []
           | n :: _ ->
               n.base_sleep
               @ List.filter_map (fun d -> d.moved) n.done_)
      in
      Array.iteri
        (fun idx e ->
          if e.q > from_q then begin
            (match e.kind with
             | Qacquire l ->
                 sleep := List.filter (fun (_, r) -> r <> l) !sleep
             | Qtie _ | Qexit _ -> ());
            if e.q < max_branch then begin
              let alts = eligible_alts xlog idx e in
              let eligible_n = List.length alts in
              let node =
                { nq = e.q;
                  nres =
                    (match e.kind with
                     | Qtie _ -> "schedule"
                     | Qacquire l | Qexit l -> l);
                  nvp = e.qvp;
                  nnow = e.qnow;
                  ncands = (match e.kind with Qtie c -> c | _ -> [||]);
                  nis_acquire =
                    (match e.kind with Qacquire _ -> true | _ -> false);
                  base_sleep = !sleep;
                  cur = None;
                  todo = [];
                  done_ = [];
                  eligible_n;
                  explored_eligible = 0 }
              in
              if mode = Brute then
                List.iter (insert node) alts;
              stack := node :: !stack
            end
          end)
        xlog
    in
    (* Race analysis: consecutive acquires of one lock by different vps.
       The insertion point for reversing (i: p) -> (j: q) is the last tie
       at or before i offering q and not already choosing it; failing
       that, a jitter at p's previous acquire sized so p's clock passes
       q's acquire. *)
    let analyse xlog =
      let last_acq : (string, qinfo) Hashtbl.t = Hashtbl.create 8 in
      Array.iter
        (fun e ->
          match e.kind with
          | Qacquire l ->
              (match Hashtbl.find_opt last_acq l with
               | Some prev when prev.qvp <> e.qvp ->
                   incr races;
                   let p = prev.qvp and q = e.qvp in
                   let tie_node =
                     List.find_opt
                       (fun n ->
                         n.nq <= prev.q
                         && Array.exists (( = ) q) n.ncands
                         && node_chosen_vp n <> q)
                       !stack
                   in
                   (match tie_node with
                    | Some t ->
                        let pos = ref 0 in
                        Array.iteri
                          (fun k vid -> if vid = q then pos := k)
                          t.ncands;
                        insert t
                          { dec = Tie_pick !pos; moved = Some (q, l);
                            eligible = true }
                    | None when defers ->
                        let h =
                          List.find_opt
                            (fun n ->
                              n.nis_acquire && n.nvp = p && n.nq < prev.q)
                            !stack
                        in
                        (match h with
                         | Some h
                           when List.length
                                  (List.filter
                                     (fun d ->
                                       match d.dec with
                                       | Lock_jitter _ -> true
                                       | _ -> false)
                                     (h.done_ @ h.todo))
                                < defer_cap ->
                             let j =
                               max 1 (e.qnow - h.nnow + defer_slack)
                             in
                             insert h
                               { dec = Lock_jitter j; moved = Some (q, l);
                                 eligible = false }
                         | _ -> ())
                    | None -> ())
               | _ -> ());
              Hashtbl.replace last_acq l e
          | Qtie _ | Qexit _ -> ())
        xlog
    in
    let exhausted = ref false and stop = ref false in
    while (not !stop) && !executions < budget do
      let sched = prefix_of !stack in
      let x = run sched in
      incr executions;
      if !executions mod 50 = 0 then
        log
          (Printf.sprintf "%d execution(s), %d race(s), %d observable(s)"
             !executions !races (Hashtbl.length obs_tbl));
      if not (Hashtbl.mem obs_tbl x.obs) then begin
        Hashtbl.replace obs_tbl x.obs ();
        obs_witness := (x.obs, sched) :: !obs_witness
      end;
      Hashtbl.replace trace_tbl (trace_fingerprint x.xlog) ();
      (match x.failure with
       | Some what -> failures := (sched, what) :: !failures
       | None -> ());
      if stop_on_failure && x.failure <> None then stop := true
      else begin
        extend x.xlog;
        if mode = Dpor then analyse x.xlog;
        (* backtrack: pop fully-explored choice points, take the deepest
           pending alternative *)
        let rec backtrack () =
          match !stack with
          | [] ->
              exhausted := true;
              stop := true
          | n :: rest -> (
              match n.todo with
              | [] ->
                  pruned :=
                    !pruned + max 0 (n.eligible_n - n.explored_eligible);
                  stack := rest;
                  backtrack ()
              | a :: todo ->
                  n.todo <- todo;
                  (match n.cur with
                   | Some c -> n.done_ <- c :: n.done_
                   | None -> ());
                  n.cur <- Some a;
                  if a.eligible then
                    n.explored_eligible <- n.explored_eligible + 1)
        in
        backtrack ()
      end
    done;
    (* anything still pending when the budget ran out is unexplored *)
    if not !exhausted then
      List.iter
        (fun n ->
          pruned := !pruned + max 0 (n.eligible_n - n.explored_eligible))
        !stack;
    { stats =
        { executions = !executions;
          distinct_obs = Hashtbl.length obs_tbl;
          distinct_traces = Hashtbl.length trace_tbl;
          races = !races;
          pruned = !pruned;
          sleep_skips = !sleep_skips;
          bounded = !bounded;
          exhausted = !exhausted };
      obs_witness = List.rev !obs_witness;
      failures = List.rev !failures }
end
