(* Simulated I/O devices.

   The paper serializes two I/O structures: the input event queue shared by
   the interpreters, and the output queue of the display controller.  Both
   are guarded by spin-locks; access is "for very brief intervals", but with
   several busy Processes the display becomes a point of contention.

   The display controller drains its queue at a fixed service rate.  When
   the queue is full, an enqueueing interpreter must wait for space — this
   is how the paper's "busy" Processes, which contend for the display,
   interfere with the benchmark Process.

   Each queue is the guarded resource of its lock and carries the lock's
   name, so the sanitizer id of the lock is also the queue's. *)

type display = {
  lock : Spinlock.t;
  service_cycles : int;       (* time to paint one command *)
  capacity : int;
  mutable free_at : int;      (* when the controller finishes its backlog *)
  mutable commands : int;     (* total commands ever enqueued *)
  mutable producer_wait : int;(* cycles producers spent waiting for space *)
  mutable fault_stall_cycles : int; (* injected controller wedge time *)
}

let make_display ~lock ~cost =
  { lock;
    service_cycles = cost.Cost_model.display_cmd;
    capacity = cost.Cost_model.display_capacity;
    free_at = 0;
    commands = 0;
    producer_wait = 0;
    fault_stall_cycles = 0 }

(* The device-fault injection point: the controller wedges for [n] cycles
   (a DMA timeout), pushing its whole backlog out by [n].  Producers feel
   it as longer space waits; the injected cycles are accounted here, not
   in [producer_wait], so device campaigns do not pollute the contention
   numbers.  The input queue is deliberately not a timeout target: polls
   are non-blocking, so a wedged poll has no backlog to model. *)
let inject_device_fault d ~vp ~now =
  if vp >= 0 then
    match Spinlock.injector d.lock with
    | None -> ()
    | Some inj -> (
        match Fault.at inj Fault.Device_op with
        | Some (Fault.Device_timeout n) ->
            Fault.applied inj (Fault.Device_timeout n);
            Sanitizer.fault_event (Spinlock.sanitizer d.lock) ~vp ~now
              ~resource:"display output queue"
              (Printf.sprintf "device timeout %d" n);
            d.free_at <- Int.max d.free_at now + n;
            d.fault_stall_cycles <- d.fault_stall_cycles + n
        | Some _ | None -> ())

(* Enqueue one draw command at [now]; returns the completion time for the
   enqueueing processor (it does not wait for the paint, only for queue
   space and the queue lock). *)
let display_enqueue ?(vp = -1) d ~now =
  inject_device_fault d ~vp ~now;
  (* Backlog length at [now], inferred from when the controller will drain. *)
  let backlog =
    if d.free_at <= now then 0
    else (d.free_at - now + d.service_cycles - 1) / d.service_cycles
  in
  let start =
    if backlog < d.capacity then now
    else begin
      (* wait until the controller has drained down to capacity - 1 *)
      let t = d.free_at - ((d.capacity - 1) * d.service_cycles) in
      d.producer_wait <- d.producer_wait + (t - now);
      t
    end
  in
  let after_lock, () =
    Spinlock.critical ~vp d.lock ~now:start ~op_cycles:10 (fun () ->
        Sanitizer.check_guarded (Spinlock.sanitizer d.lock)
          ~resource:(Spinlock.sanitizer_id d.lock) ~vp ~now:start
          (Trace.Text "enqueue") 0 0;
        d.commands <- d.commands + 1)
  in
  d.free_at <- Int.max d.free_at after_lock + d.service_cycles;
  after_lock

let display_commands d = d.commands
let display_producer_wait d = d.producer_wait
let display_fault_stall_cycles d = d.fault_stall_cycles
let display_lock d = d.lock

(* The shared input event queue.  Events are injected by a script (tests,
   or the interactive examples) and become visible at their stamped time.
   Every interpreter polls it periodically, under the queue's lock — one of
   the sources of static multiprocessor overhead. *)

type event = { time : int; payload : int }

type input_queue = {
  ilock : Spinlock.t;
  mutable pending : event list;   (* sorted by time *)
  mutable polls : int;
  mutable delivered : int;
}

let make_input_queue ~lock =
  { ilock = lock;
    pending = [];
    polls = 0;
    delivered = 0 }

let inject q ~time ~payload =
  let rec insert = function
    | [] -> [ { time; payload } ]
    | e :: rest when e.time <= time -> e :: insert rest
    | rest -> { time; payload } :: rest
  in
  q.pending <- insert q.pending

(* Poll at [now] under the lock: returns (completion_time, event payload if
   one was ready). *)
let poll ?(vp = -1) q ~now ~op_cycles =
  q.polls <- q.polls + 1;
  Spinlock.critical ~vp q.ilock ~now ~op_cycles (fun () ->
      match q.pending with
      | e :: rest when e.time <= now ->
          Sanitizer.check_guarded (Spinlock.sanitizer q.ilock)
            ~resource:(Spinlock.sanitizer_id q.ilock) ~vp ~now
            (Trace.Text "pop") 0 0;
          q.pending <- rest;
          q.delivered <- q.delivered + 1;
          Some e.payload
      | _ -> None)

(* A [match], not a comparison with [[]]: [nothing_runnable] asks on
   every idle engine step, and polymorphic compare has no place there. *)
let input_pending q = match q.pending with [] -> false | _ :: _ -> true

(* When the earliest still-queued event becomes visible — the calendar
   engine parks idle processors until this time instead of having them
   poll every few quanta. *)
let next_input_time q =
  match q.pending with [] -> None | e :: _ -> Some e.time

let input_polls q = q.polls
let input_delivered q = q.delivered
let input_lock q = q.ilock
