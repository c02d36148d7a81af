type mode = Off | Report | Strict

exception Violation of string

(* Per-lock serialization state.  [last_finish] is the latest finish on
   the lock's virtual timeline; [depth]/[section_vp] track the currently
   open bracket.  The host is single-threaded, so a bracket being open
   means host-order nesting, which is exactly the discipline the checker
   verifies. *)
type lock_state = {
  mutable last_finish : int;
  mutable depth : int;
  mutable section_vp : int;
}

(* Parallel-scavenge phase: while the engine's lock checker is disarmed
   (the stop-the-world scavenger mutates without locks by design), the
   scavenger itself has invariants worth machine-checking — each from-space
   object is claimed by exactly one worker, allocation buffers claimed from
   the shared regions never overlap, and every copy lands inside a buffer
   owned by the copying worker. *)
type scav_state = {
  claims : (int, int) Hashtbl.t;  (* from-space address -> claiming worker *)
  mutable chunks : (int * int * int) list;  (* worker, base, limit *)
}

type id = int

(* Locks and guarded resources are named by their trace-ring ids, so one
   id indexes both the per-name state below and the ring's name table. *)
type t = {
  mode : mode;
  trace : Trace.t;
  mutable locks : lock_state array;  (* by id; unused for pure resources *)
  mutable guards : id array;  (* resource id -> guarding lock id, or -1 *)
  mutable armed : bool;
  mutable scav : scav_state option;  (* open parallel-scavenge phase *)
  mutable violation_count : int;
  mutable messages : string list;  (* newest first, capped *)
}

let max_messages = 64

let create mode =
  {
    mode;
    trace = Trace.create ();
    locks = [||];
    guards = [||];
    armed = false;
    scav = None;
    violation_count = 0;
    messages = [];
  }

let mode t = t.mode
let active t = t.mode <> Off
let set_armed t b = t.armed <- b
let armed t = t.armed
let checking t = active t && t.armed
let trace t = t.trace
let violation_count t = t.violation_count
let violations t = List.rev t.messages

let id t name =
  let id = Trace.intern t.trace name in
  let n = Array.length t.locks in
  if id >= n then begin
    let n' = max (id + 1) (max 16 (2 * n)) in
    t.locks <-
      Array.init n' (fun i ->
          if i < n then t.locks.(i)
          else { last_finish = 0; depth = 0; section_vp = -1 });
    t.guards <- Array.init n' (fun i -> if i < n then t.guards.(i) else -1)
  end;
  id

let register_guard t ~resource ~lock =
  let lock = id t lock in
  t.guards.(id t resource) <- lock

let report_violation t ~vp ~now ~resource msg =
  t.violation_count <- t.violation_count + 1;
  if List.length t.messages < max_messages then
    t.messages <- Printf.sprintf "%s: %s" resource msg :: t.messages;
  Trace.note t.trace ~vp ~time:now ~kind:Trace.Violation ~resource msg;
  if t.mode = Strict then
    raise (Violation (Printf.sprintf "sanitizer: %s: %s" resource msg))

let report_on t ~vp ~now id msg =
  report_violation t ~vp ~now ~resource:(Trace.name t.trace id) msg

let on_lock_op t ~lock ~vp ~now ~start ~finish ~contended =
  if active t then begin
    let st = t.locks.(lock) in
    if t.armed && start < st.last_finish then
      report_on t ~vp ~now lock
        (Printf.sprintf
           "timeline moved backwards: section [%d,%d] starts before \
            previous finish %d"
           start finish st.last_finish);
    if t.armed && finish < start then
      report_on t ~vp ~now lock
        (Printf.sprintf "section finish %d before start %d" finish start);
    st.last_finish <- max st.last_finish finish;
    Trace.record t.trace ~vp ~time:start
      ~kind:(if contended then Trace.Lock_contend else Trace.Lock_acquire)
      ~resource:lock Trace.Finish finish 0
  end

let section_enter t ~lock ~vp ~now ~start ~finish ~contended =
  if active t then begin
    on_lock_op t ~lock ~vp ~now ~start ~finish ~contended;
    let st = t.locks.(lock) in
    st.depth <- st.depth + 1;
    st.section_vp <- vp;
    Trace.record t.trace ~vp ~time:start ~kind:Trace.Section_enter
      ~resource:lock Trace.Empty 0 0
  end

let section_exit t ~lock ~vp ~now =
  if active t then begin
    let st = t.locks.(lock) in
    if t.armed && st.depth <= 0 then
      report_on t ~vp ~now lock "section exit without matching enter"
    else st.depth <- max 0 (st.depth - 1);
    if st.depth = 0 then st.section_vp <- -1;
    Trace.record t.trace ~vp ~time:now ~kind:Trace.Section_exit
      ~resource:lock Trace.Empty 0 0
  end

let check_guarded t ~resource ~vp ~now detail a b =
  if checking t then begin
    let lock = t.guards.(resource) in
    if lock >= 0 then begin
      let st = t.locks.(lock) in
      if st.depth <= 0 then
        report_on t ~vp ~now resource
          (Printf.sprintf "mutated outside '%s' critical section (%s)"
             (Trace.name t.trace lock) (Trace.render detail a b))
      else if vp >= 0 && st.section_vp >= 0 && vp <> st.section_vp then
        report_on t ~vp ~now resource
          (Printf.sprintf
             "mutated by vp %d inside '%s' section held by vp %d (%s)" vp
             (Trace.name t.trace lock) st.section_vp
             (Trace.render detail a b))
      else
        Trace.record t.trace ~vp ~time:now ~kind:Trace.Mutation ~resource
          detail a b
    end
  end

let check_owner t ~resource ~owner ~vp ~now =
  if checking t && owner >= 0 then
    if vp >= 0 && vp <> owner then
      report_on t ~vp ~now resource
        (Printf.sprintf "replicated resource owned by vp %d touched by vp %d"
           owner vp)
    else
      Trace.record t.trace ~vp ~time:now ~kind:Trace.Owner_touch ~resource
        Trace.Owner owner 0

(* Record an injected fault or a recovery action in the trace ring.
   Faults are simulation events, not invariant violations — they are
   recorded whenever the sanitizer is on at all, so a post-mortem dump
   shows the fault that preceded the failure it caused. *)
let fault_event t ~vp ~now ~resource detail =
  if active t then
    Trace.note t.trace ~vp ~time:now ~kind:Trace.Fault_event ~resource detail

(* Record a successful work steal.  Like faults, steals are simulation
   events, not violations: when something goes wrong under the stealing
   scheduler, the dump should show which migrations led up to it. *)
let steal_event t ~vp ~now ~resource detail =
  if active t then
    Trace.record t.trace ~vp ~time:now ~kind:Trace.Steal ~resource
      (Trace.Text detail) 0 0

(* --- the parallel-scavenge phase --- *)

let scav_resource = "parallel scavenge"

(* Phase checks are gated on [active] rather than [checking]: the engine
   deliberately disarms the lock checker around the scavenger, but the
   scavenge-internal invariants must still be enforced. *)
let scavenge_begin t ~workers =
  if active t then begin
    t.scav <- Some { claims = Hashtbl.create 1024; chunks = [] };
    Trace.note t.trace ~vp:(-1) ~time:(-1) ~kind:Trace.Mutation
      ~resource:scav_resource
      (Printf.sprintf "begin (%d workers)" workers)
  end

let scavenge_claim t ~worker ~addr =
  match t.scav with
  | None -> ()
  | Some s -> (
      match Hashtbl.find_opt s.claims addr with
      | Some prior ->
          report_violation t ~vp:worker ~now:(-1) ~resource:scav_resource
            (Printf.sprintf
               "object at %d claimed by worker %d but already claimed by \
                worker %d"
               addr worker prior)
      | None -> Hashtbl.replace s.claims addr worker)

let scavenge_chunk t ~worker ~base ~limit =
  match t.scav with
  | None -> ()
  | Some s ->
      if limit <= base then
        report_violation t ~vp:worker ~now:(-1) ~resource:scav_resource
          (Printf.sprintf "worker %d claimed an empty chunk [%d,%d)" worker
             base limit)
      else begin
        List.iter
          (fun (w, b, l) ->
            if base < l && b < limit then
              report_violation t ~vp:worker ~now:(-1) ~resource:scav_resource
                (Printf.sprintf
                   "worker %d's chunk [%d,%d) overlaps worker %d's [%d,%d)"
                   worker base limit w b l))
          s.chunks;
        s.chunks <- (worker, base, limit) :: s.chunks;
        Trace.note t.trace ~vp:worker ~time:(-1) ~kind:Trace.Mutation
          ~resource:scav_resource
          (Printf.sprintf "chunk [%d,%d)" base limit)
      end

let scavenge_copy t ~worker ~addr ~words =
  match t.scav with
  | None -> ()
  | Some s ->
      let inside =
        List.exists
          (fun (w, b, l) -> w = worker && addr >= b && addr + words <= l)
          s.chunks
      in
      if not inside then
        report_violation t ~vp:worker ~now:(-1) ~resource:scav_resource
          (Printf.sprintf
             "worker %d copied %d words to %d outside any buffer it owns"
             worker words addr)

let scavenge_end t = t.scav <- None

(* --- the incremental major-collection phase (E18) --- *)

let major_resource = "major collection"

(* Cycle-level events (start, mark complete, cycle complete) are
   simulation events, recorded whenever the sanitizer is active so a
   post-mortem dump shows where the collector was. *)
let major_event t ~now detail =
  if active t then
    Trace.note t.trace ~vp:(-1) ~time:now ~kind:Trace.Major
      ~resource:major_resource detail

(* Record one bounded slice.  A slice may legitimately overrun the budget
   by the last work unit it started, but a gross overrun (4x) means the
   slice loop lost track of its cost accounting — that is a collector
   bug, not a measurement artifact.  Gated on [active] like the scavenge
   phase: the engine disarms the lock checker around the slice. *)
let major_slice t ~now ~cost ~budget =
  if active t then begin
    Trace.note t.trace ~vp:(-1) ~time:now ~kind:Trace.Major
      ~resource:major_resource
      (Printf.sprintf "slice %d cycles (budget %d)" cost budget);
    if budget > 0 && cost > 4 * budget then
      report_violation t ~vp:(-1) ~now ~resource:major_resource
        (Printf.sprintf
           "slice ran %d cycles against a budget of %d (over the 4x hard \
            ceiling)"
           cost budget)
  end

let print_report t =
  Printf.printf "sanitizer: mode=%s violations=%d\n"
    (match t.mode with Off -> "off" | Report -> "report" | Strict -> "strict")
    t.violation_count;
  let msgs = violations t in
  List.iteri (fun i m -> Printf.printf "  %2d. %s\n" (i + 1) m) msgs;
  if t.violation_count > List.length msgs then
    Printf.printf "  ... and %d more\n" (t.violation_count - List.length msgs)
