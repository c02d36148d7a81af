(* Tests for the simulated Firefly substrate: cost model, spin-lock
   contention timelines, mailboxes, devices, virtual processors. *)

let cm = Cost_model.firefly

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- cost model --- *)

let test_seconds () =
  Alcotest.(check (float 1e-9)) "1e6 cycles is one second" 1.0
    (Cost_model.seconds cm 1_000_000);
  Alcotest.(check (float 1e-9)) "zero" 0.0 (Cost_model.seconds cm 0)

(* --- spin locks --- *)

let test_lock_uncontended () =
  let l = Spinlock.make ~enabled:true ~cost:cm "t" in
  let fin = Spinlock.locked_op l ~now:100 ~op_cycles:50 in
  check "completes after acquire + op" (100 + cm.Cost_model.lock_acquire + 50) fin;
  check "one acquisition" 1 (Spinlock.acquisitions l);
  check "no contention" 0 (Spinlock.contended l)

let test_lock_contended () =
  let l = Spinlock.make ~enabled:true ~cost:cm "t" in
  let fin1 = Spinlock.locked_op l ~now:0 ~op_cycles:50 in
  (* second op arrives while the first holds the lock *)
  let fin2 = Spinlock.locked_op l ~now:10 ~op_cycles:50 in
  check_bool "second completes after first" true (fin2 > fin1);
  check "contention recorded" 1 (Spinlock.contended l);
  (* the retry happens on Delay-quantum boundaries *)
  let spin = Spinlock.spin_cycles l in
  check_bool "spin time is a positive multiple of the quantum" true
    (spin > 0 && spin mod cm.Cost_model.delay_quantum = 0)

let test_lock_sequential_no_contention () =
  let l = Spinlock.make ~enabled:true ~cost:cm "t" in
  let fin1 = Spinlock.locked_op l ~now:0 ~op_cycles:10 in
  let _fin2 = Spinlock.locked_op l ~now:(fin1 + 1) ~op_cycles:10 in
  check "no contention when spaced out" 0 (Spinlock.contended l)

let test_lock_disabled () =
  let l = Spinlock.make ~enabled:false ~cost:cm "t" in
  let fin = Spinlock.locked_op l ~now:100 ~op_cycles:50 in
  check "disabled lock costs only the operation" 150 fin;
  let fin2 = Spinlock.locked_op l ~now:100 ~op_cycles:50 in
  check "no serialization when disabled" 150 fin2;
  check "no acquisitions recorded" 0 (Spinlock.acquisitions l)

(* --- spin-lock timeline properties --- *)

(* Replay a random schedule of acquires against the documented model:
   contended acquires start at the first Delay-quantum retry instant at or
   after [free_at], spin time is exactly the wait, and the timeline never
   moves backwards. *)
let arb_schedule =
  QCheck.(
    list_of_size Gen.(int_range 1 40)
      (pair (int_range 0 300) (int_range 0 200)))

let prop_locked_op_model =
  QCheck.Test.make ~count:300 ~name:"locked_op matches the timeline model"
    arb_schedule (fun sched ->
      let l = Spinlock.make ~enabled:true ~cost:cm "p" in
      let q = cm.Cost_model.delay_quantum in
      let acq = cm.Cost_model.lock_acquire in
      let now = ref 0 in
      let prev_finish = ref 0 in
      let free_at = ref 0 in
      let expected_spin = ref 0 in
      List.for_all
        (fun (advance, op_cycles) ->
          now := !now + advance;
          let fin = Spinlock.locked_op l ~now:!now ~op_cycles in
          let start = fin - acq - op_cycles in
          let ok =
            if !now >= !free_at then start = !now
            else begin
              expected_spin := !expected_spin + (start - !now);
              (* first retry instant at or after free_at, on a quantum
                 boundary measured from the acquiring processor's [now] *)
              start >= !free_at
              && start - q < !free_at
              && (start - !now) mod q = 0
            end
          in
          let ok =
            ok && start >= !prev_finish
            && Spinlock.spin_cycles l = !expected_spin
          in
          prev_finish := fin;
          free_at := fin;
          ok)
        sched)

let prop_locked_op_disabled =
  QCheck.Test.make ~count:100 ~name:"disabled locks charge only the op"
    arb_schedule (fun sched ->
      let l = Spinlock.make ~enabled:false ~cost:cm "p" in
      let now = ref 0 in
      List.for_all
        (fun (advance, op_cycles) ->
          now := !now + advance;
          Spinlock.locked_op l ~now:!now ~op_cycles = !now + op_cycles)
        sched
      && Spinlock.acquisitions l = 0
      && Spinlock.contended l = 0
      && Spinlock.spin_cycles l = 0)

(* --- mailboxes --- *)

let test_mailbox () =
  let mb = Mailbox.make () in
  (match Mailbox.receive mb ~now:0 with
   | Mailbox.Empty -> ()
   | _ -> Alcotest.fail "expected empty");
  Mailbox.send mb ~now:50 "park";
  (match Mailbox.receive mb ~now:10 with
   | Mailbox.Arrives_at t -> check "future message" 50 t
   | _ -> Alcotest.fail "expected future arrival");
  (match Mailbox.receive mb ~now:60 with
   | Mailbox.Message m -> Alcotest.(check string) "payload" "park" m
   | _ -> Alcotest.fail "expected delivery");
  check "fifo drained" 0 (Mailbox.length mb)

let test_mailbox_fifo_order () =
  let mb = Mailbox.make () in
  Mailbox.send mb ~now:0 1;
  Mailbox.send mb ~now:0 2;
  (match Mailbox.receive mb ~now:0 with
   | Mailbox.Message v -> check "first in, first out" 1 v
   | _ -> Alcotest.fail "expected message")

(* --- display controller --- *)

let display ~enabled =
  Devices.make_display
    ~lock:(Spinlock.make ~enabled ~cost:cm "display output queue")
    ~cost:cm

let input_queue ~enabled =
  Devices.make_input_queue
    ~lock:(Spinlock.make ~enabled ~cost:cm "input event queue")

let test_display_drains () =
  let d = display ~enabled:true in
  let t1 = Devices.display_enqueue d ~now:0 in
  check_bool "enqueue is quick when the queue is empty" true
    (t1 < cm.Cost_model.display_cmd);
  check "one command" 1 (Devices.display_commands d)

let test_display_backpressure () =
  let d = display ~enabled:true in
  (* flood the queue from a single producer at time 0 *)
  let t = ref 0 in
  for _ = 1 to cm.Cost_model.display_capacity + 8 do
    t := Devices.display_enqueue d ~now:!t
  done;
  check_bool "producer eventually waits for queue space" true
    (Devices.display_producer_wait d > 0)

(* --- input queue --- *)

let test_input_queue () =
  let q = input_queue ~enabled:true in
  Devices.inject q ~time:100 ~payload:7;
  let _, ev = Devices.poll q ~now:50 ~op_cycles:5 in
  check_bool "event not visible before its time" true (ev = None);
  let _, ev = Devices.poll q ~now:150 ~op_cycles:5 in
  (match ev with
   | Some p -> check "payload" 7 p
   | None -> Alcotest.fail "expected the event");
  check "polls counted" 2 (Devices.input_polls q);
  check "deliveries counted" 1 (Devices.input_delivered q)

let test_input_order () =
  let q = input_queue ~enabled:false in
  Devices.inject q ~time:20 ~payload:2;
  Devices.inject q ~time:10 ~payload:1;
  let _, ev1 = Devices.poll q ~now:100 ~op_cycles:1 in
  let _, ev2 = Devices.poll q ~now:100 ~op_cycles:1 in
  Alcotest.(check (option int)) "earlier event first" (Some 1) ev1;
  Alcotest.(check (option int)) "later event second" (Some 2) ev2

(* --- the trace ring --- *)

(* The typed ring against a list model.  Random events (every kind, a
   few resource names, every detail code over arbitrary arguments) and
   random clears on rings of 1-16 slots: after each step [recorded]
   counts the events since the last clear, and [last] returns exactly the
   newest [capacity] of them, oldest first, even when asked for more.
   The model renders each detail with the Printf formats the ring stored
   as strings before it became typed, so every code must render them
   byte for byte. *)

type ring_op =
  | Clear
  | Record of int * int * Trace.kind * string * Trace.detail * int * int

let model_detail (d : Trace.detail) a b =
  match d with
  | Empty -> ""
  | Finish -> Printf.sprintf "finish=%d" a
  | Owner -> Printf.sprintf "owner=%d" a
  | Words -> Printf.sprintf "%d words" a
  | Slot -> Printf.sprintf "%d[%d]" a b
  | Address -> string_of_int a
  | Text s -> s

let ring_kinds =
  Trace.
    [| Lock_acquire; Lock_contend; Section_enter; Section_exit; Mutation;
       Owner_touch; Violation; Fault_event; Steal; Major |]

let ring_resources = [| "allocation"; "ready deque 3"; "r"; "" |]

let ring_details =
  Trace.
    [| Empty; Finish; Owner; Words; Slot; Address; Text "#3 holder stall 40";
       Text "" |]

let ring_op_gen =
  QCheck.Gen.(
    frequency
      [ (1, return Clear);
        ( 15,
          map
            (fun (vp, time, (k, r, d), (a, b)) ->
              Record
                ( vp, time, ring_kinds.(k), ring_resources.(r),
                  ring_details.(d), a, b ))
            (quad (int_range (-1) 70) (int_range (-1) 1_000_000)
               (triple (int_bound 9) (int_bound 3) (int_bound 7))
               (pair int int)) ) ])

let print_ring_op = function
  | Clear -> "clear"
  | Record (vp, time, kind, resource, detail, a, b) ->
      Printf.sprintf "%d@%d %s %S %S" vp time (Trace.kind_name kind) resource
        (model_detail detail a b)

let prop_trace_ring =
  QCheck.Test.make ~count:300
    ~name:"trace ring keeps the newest events through wraparound"
    QCheck.(
      make
        ~print:(fun (capacity, ops) ->
          Printf.sprintf "capacity %d: %s" capacity
            (String.concat "; " (List.map print_ring_op ops)))
        Gen.(pair (int_range 1 16) (list_size (int_range 0 80) ring_op_gen)))
    (fun (capacity, ops) ->
      let t = Trace.create ~capacity () in
      let model = ref [] (* newest first *) and count = ref 0 in
      let newest n = List.rev (List.filteri (fun i _ -> i < n) !model) in
      List.for_all
        (fun op ->
          (match op with
           | Clear ->
               Trace.clear t;
               model := [];
               count := 0
           | Record (vp, time, kind, resource, detail, a, b) ->
               Trace.record t ~vp ~time ~kind
                 ~resource:(Trace.intern t resource) detail a b;
               model :=
                 { Trace.vp; time; kind; resource;
                   detail = model_detail detail a b }
                 :: !model;
               incr count);
          Trace.recorded t = !count
          && Trace.last t capacity = newest capacity
          && Trace.last t (capacity + 50) = newest capacity
          && Trace.last t 1 = newest 1)
        ops)

(* --- multi-vp queue ordering --- *)

(* Three producers interleaving sends: the mailbox is a strict FIFO —
   every message is delivered exactly once, in send order, regardless of
   which vp sent it. *)
let test_mailbox_multi_vp_order () =
  let mb = Mailbox.make () in
  (* (vp, send time): insertion order is the expected delivery order *)
  let sends = [ (0, 10); (1, 10); (2, 11); (0, 12); (2, 12); (1, 15) ] in
  List.iteri
    (fun i (vp, time) -> Mailbox.send mb ~now:time (i, vp))
    sends;
  check "all sends counted" (List.length sends) (Mailbox.sends mb);
  List.iteri
    (fun i (vp, _) ->
      match Mailbox.receive mb ~now:100 with
      | Mailbox.Message (j, sender) ->
          check (Printf.sprintf "message %d in send order" i) i j;
          check (Printf.sprintf "message %d from the right vp" i) vp sender
      | _ -> Alcotest.fail "expected a message")
    sends;
  check "drained exactly once each" 0 (Mailbox.length mb)

(* Several vps hammering the display queue at the same instant: the lock
   serializes them, so completion times are strictly increasing and every
   command lands. *)
let test_display_multi_vp_contention () =
  let d = display ~enabled:true in
  let finishes =
    List.map (fun vp -> Devices.display_enqueue ~vp d ~now:0) [ 0; 1; 2; 3 ]
  in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  check_bool "lock serializes simultaneous enqueues" true
    (strictly_increasing finishes);
  check "every command enqueued" 4 (Devices.display_commands d);
  check "every enqueue took the lock" 4
    (Spinlock.acquisitions (Devices.display_lock d));
  check_bool "the later vps contended" true
    (Spinlock.contended (Devices.display_lock d) > 0)

(* Several vps polling the input queue at the same instant: each event is
   delivered exactly once, in time order, across the competing pollers. *)
let test_input_multi_vp_contention () =
  let q = input_queue ~enabled:true in
  List.iter
    (fun (time, payload) -> Devices.inject q ~time ~payload)
    [ (30, 3); (10, 1); (20, 2) ];
  let delivered = ref [] in
  for round = 0 to 1 do
    List.iter
      (fun vp ->
        ignore round;
        match Devices.poll ~vp q ~now:100 ~op_cycles:5 with
        | _, Some p -> delivered := p :: !delivered
        | _, None -> ())
      [ 0; 1; 2 ]
  done;
  Alcotest.(check (list int)) "each event once, in time order" [ 1; 2; 3 ]
    (List.rev !delivered);
  check "deliveries counted" 3 (Devices.input_delivered q);
  check_bool "nothing left pending" false (Devices.input_pending q);
  check "every poll took the lock" 6
    (Spinlock.acquisitions (Devices.input_lock q))

(* --- machine --- *)

(* Clock ties must resolve deterministically: the engine steps the vp with
   the lowest id among the minimum clocks, so identical inputs replay to
   identical schedules. *)
let prop_min_runnable_deterministic =
  QCheck.Test.make ~count:300 ~name:"min_runnable breaks clock ties by id"
    QCheck.(list_of_size Gen.(int_range 1 8) (int_range 0 5))
    (fun clocks ->
      let n = List.length clocks in
      let m = Machine.make ~processors:n cm in
      List.iteri (fun i c -> (Machine.vp m i).Machine.clock <- c) clocks;
      let least = List.fold_left min max_int clocks in
      match Machine.min_runnable m with
      | None -> false
      | Some vp ->
          vp.Machine.clock = least
          && List.filteri (fun i c -> c = least && i < vp.Machine.id) clocks
             = [])

let test_machine_min_runnable () =
  let m = Machine.make ~processors:3 cm in
  (Machine.vp m 0).Machine.clock <- 30;
  (Machine.vp m 1).Machine.clock <- 10;
  (Machine.vp m 2).Machine.clock <- 20;
  (match Machine.min_runnable m with
   | Some vp -> check "smallest clock wins" 1 vp.Machine.id
   | None -> Alcotest.fail "expected a runnable vp");
  Machine.set_state m (Machine.vp m 1) Machine.Halted;
  (match Machine.min_runnable m with
   | Some vp -> check "halted vp skipped" 2 vp.Machine.id
   | None -> Alcotest.fail "expected a runnable vp")

(* A policy's choose_tie must see every minimal candidate exactly when
   there are at least two; a unique minimum goes straight through. *)
let test_machine_policy_ties () =
  let m = Machine.make ~processors:4 cm in
  let seen = ref [] in
  Machine.set_policy m
    (Some
       { Machine.default_policy with
         Machine.choose_tie =
           (fun ties ->
             seen := Array.to_list (Array.map (fun v -> v.Machine.id) ties);
             ties.(Array.length ties - 1)) });
  (Machine.vp m 0).Machine.clock <- 20;
  (Machine.vp m 1).Machine.clock <- 10;
  (Machine.vp m 2).Machine.clock <- 20;
  (Machine.vp m 3).Machine.clock <- 30;
  (match Machine.min_runnable m with
   | Some vp -> check "unique minimum bypasses choose_tie" 1 vp.Machine.id
   | None -> Alcotest.fail "expected a runnable vp");
  check_bool "no tie consulted" true (!seen = []);
  (Machine.vp m 1).Machine.clock <- 20;
  (match Machine.min_runnable m with
   | Some vp -> check "policy's pick honoured" 2 vp.Machine.id
   | None -> Alcotest.fail "expected a runnable vp");
  Alcotest.(check (list int)) "all minimal candidates, ascending ids"
    [ 0; 1; 2 ] !seen

(* --- the event calendar (E17) --- *)

let test_calendar_basic () =
  let c = Calendar.create () in
  check_bool "fresh heap is empty" true (Calendar.is_empty c);
  Calendar.add c ~key:30 "c";
  Calendar.add c ~key:10 "a";
  Calendar.add c ~key:20 "b";
  check "top key" 10 (Calendar.top_key c);
  check "top_key leaves length" 3 (Calendar.length c);
  (match Calendar.pop c with
   | Some (10, "a") -> ()
   | _ -> Alcotest.fail "pop order");
  (match Calendar.pop c with
   | Some (20, "b") -> ()
   | _ -> Alcotest.fail "pop order");
  Calendar.add c ~key:5 "d";
  (match Calendar.pop c with
   | Some (5, "d") -> ()
   | _ -> Alcotest.fail "interleaved add respects order");
  (match Calendar.pop c with
   | Some (30, "c") -> ()
   | _ -> Alcotest.fail "pop order");
  check_bool "drained" true (Calendar.pop c = None)

let test_calendar_fifo_on_equal_keys () =
  let c = Calendar.create () in
  List.iter (fun v -> Calendar.add c ~key:7 v) [ 1; 2; 3; 4 ];
  Calendar.add c ~key:3 0;
  let order = List.map snd (Calendar.to_sorted_list c) in
  Alcotest.(check (list int)) "equal deadlines fire in insertion order"
    [ 0; 1; 2; 3; 4 ] order

(* The heap must drain any insertion sequence in stable (key, insertion)
   order — the property the timer queue leans on. *)
let prop_calendar_sorted_stable =
  QCheck.Test.make ~count:300 ~name:"calendar drains in stable key order"
    QCheck.(list (int_range 0 50))
    (fun keys ->
      let c = Calendar.create () in
      List.iteri (fun i k -> Calendar.add c ~key:k (i, k)) keys;
      let drained = List.map snd (Calendar.to_sorted_list c) in
      let expected =
        List.stable_sort
          (fun (_, k1) (_, k2) -> compare k1 k2)
          (List.mapi (fun i k -> (i, k)) keys)
      in
      drained = expected)

(* Model-based: random interleavings of the engine's allocation-free
   calls ([add], [top_key], [take]) and the option-returning [pop],
   checked op by op against a list kept in (key, insertion) order.  Keys
   come from a small range, so equal keys are common; [Drain] empties the
   heap, and the operations after it refill it. *)
type cal_op = Add of int | Take | Top_key | Pop | Drain

let print_cal_op = function
  | Add k -> Printf.sprintf "add %d" k
  | Take -> "take"
  | Top_key -> "top_key"
  | Pop -> "pop"
  | Drain -> "drain"

let cal_op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map (fun k -> Add k) (int_range 0 12));
        (2, return Take);
        (1, return Top_key);
        (2, return Pop);
        (1, return Drain) ])

let prop_calendar_model =
  QCheck.Test.make ~count:500 ~name:"calendar matches a sorted-list model"
    (QCheck.make
       ~print:(QCheck.Print.list print_cal_op)
       QCheck.Gen.(list_size (int_range 0 80) cal_op_gen))
    (fun ops ->
      let c = Calendar.create () in
      (* (key, value) in drain order; values number the insertions *)
      let model = ref [] and next = ref 0 in
      let insert k v =
        let rec go = function
          | ((k', _) as e) :: rest when k' <= k -> e :: go rest
          | rest -> (k, v) :: rest
        in
        model := go !model
      in
      let take_model () =
        match !model with
        | [] -> None
        | e :: rest ->
            model := rest;
            Some e
      in
      let rec drain acc =
        if Calendar.is_empty c then List.rev acc
        else begin
          let k = Calendar.top_key c in
          drain ((k, Calendar.take c) :: acc)
        end
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Add k ->
                let v = !next in
                incr next;
                Calendar.add c ~key:k v;
                insert k v;
                true
            | Take -> (
                match take_model () with
                | Some (_, v) -> Calendar.take c = v
                | None -> (
                    try ignore (Calendar.take c); false
                    with Invalid_argument _ -> true))
            | Top_key ->
                Calendar.top_key c
                = (match !model with [] -> max_int | (k, _) :: _ -> k)
            | Pop -> Calendar.pop c = take_model ()
            | Drain ->
                let expected = !model in
                model := [];
                drain [] = expected
          in
          ok
          && Calendar.length c = List.length !model
          && Calendar.to_sorted_list c = !model)
        ops)

(* --- the engine's pending heap --- *)

(* Model-based: random interleavings of every [Pending] operation,
   checked op by op against a sorted list.  Keys come from a small range
   so duplicates are common, [push_pop] runs on an empty heap too, and a
   full heap must refuse an [add]. *)
type pend_op = P_add of int | P_take | P_top | P_push_pop of int | P_drain

let print_pend_op = function
  | P_add k -> Printf.sprintf "add %d" k
  | P_take -> "take"
  | P_top -> "top"
  | P_push_pop k -> Printf.sprintf "push_pop %d" k
  | P_drain -> "drain"

let pend_op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map (fun k -> P_add k) (int_range 0 20));
        (2, return P_take);
        (1, return P_top);
        (3, map (fun k -> P_push_pop k) (int_range 0 20));
        (1, return P_drain) ])

let prop_pending_model =
  QCheck.Test.make ~count:500 ~name:"pending heap matches a sorted-list model"
    (QCheck.make
       ~print:QCheck.Print.(pair int (list print_pend_op))
       QCheck.Gen.(
         pair (int_range 1 12) (list_size (int_range 0 80) pend_op_gen)))
    (fun (capacity, ops) ->
      let p = Pending.create ~processors:capacity in
      let model = ref [] in
      let insert k = model := List.merge compare [ k ] !model in
      let take_model () =
        match !model with
        | [] -> None
        | k :: rest ->
            model := rest;
            Some k
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | P_add k ->
                if List.length !model = capacity then (
                  try Pending.add p k; false with Invalid_argument _ -> true)
                else begin
                  Pending.add p k;
                  insert k;
                  true
                end
            | P_take -> (
                match take_model () with
                | Some k -> Pending.take p = k
                | None -> (
                    try ignore (Pending.take p); false
                    with Invalid_argument _ -> true))
            | P_top ->
                Pending.top p = (match !model with [] -> max_int | k :: _ -> k)
            | P_push_pop k ->
                insert k;
                Pending.push_pop p k = Option.get (take_model ())
            | P_drain ->
                let expected = !model in
                model := [];
                List.for_all (fun k -> Pending.take p = k) expected
          in
          ok && Pending.length p = List.length !model
          && Pending.is_empty p = (!model = []))
        ops)

(* The engine's selection order is the scan order: driving a heap the
   way the engine does — take or push_pop the minimum, then halt that
   processor or advance its clock and carry its key — must pick, at every
   step, the processor [Machine.min_runnable] names, equal clocks
   included.  65 processors need one more key bit than 64. *)
let prop_pending_matches_min_runnable =
  let gen =
    QCheck.Gen.(
      oneofl [ 1; 3; 5; 64; 65 ] >>= fun n ->
      pair (list_repeat n (int_range 0 5))
        (list_size (int_range 0 (3 * n)) (opt (int_range 0 3)))
      >|= fun (clocks, moves) -> (n, clocks, moves))
  in
  QCheck.Test.make ~count:300
    ~name:"pending heap pops in Machine.min_runnable order"
    (QCheck.make
       ~print:QCheck.Print.(
         triple int (list int) (list (option int)))
       gen)
    (fun (n, clocks, moves) ->
      let m = Machine.make ~processors:n cm in
      let p = Pending.create ~processors:n in
      let key vp = Pending.key p ~clock:vp.Machine.clock ~id:vp.Machine.id in
      List.iteri
        (fun i c ->
          let vp = Machine.vp m i in
          vp.Machine.clock <- c;
          Pending.add p (key vp))
        clocks;
      let carry = ref None in
      let pop () =
        match !carry with
        | Some k ->
            carry := None;
            Some (Pending.push_pop p k)
        | None -> if Pending.is_empty p then None else Some (Pending.take p)
      in
      (* a move advances the picked processor's clock or halts it;
         running out of moves halts the rest one by one *)
      let rec go moves =
        match pop (), Machine.min_runnable m with
        | None, None -> true
        | Some k, Some vp when Pending.id_of p k = vp.Machine.id -> (
            match moves with
            | Some d :: rest ->
                Machine.charge m vp d;
                carry := Some (key vp);
                go rest
            | None :: rest | ([] as rest) ->
                Machine.set_state m vp Machine.Halted;
                go rest)
        | _ -> false
      in
      go moves)

let test_machine_bus_factor () =
  let m = Machine.make ~processors:5 cm in
  let vp = Machine.vp m 0 in
  Machine.charge_mem m vp 1000;
  let five_way = vp.Machine.clock in
  (* idle everyone else: memory ops get cheaper *)
  for i = 1 to 4 do
    Machine.set_state m (Machine.vp m i) Machine.Idle
  done;
  vp.Machine.clock <- 0;
  Machine.charge_mem m vp 1000;
  check_bool "bus contention inflates memory costs" true
    (five_way > vp.Machine.clock);
  check "solo cost is the raw cost" 1000 vp.Machine.clock

let test_machine_synchronize () =
  let m = Machine.make ~processors:2 cm in
  (Machine.vp m 0).Machine.clock <- 100;
  (Machine.vp m 1).Machine.clock <- 300;
  Machine.synchronize_clocks m 500;
  check "laggard advanced" 500 (Machine.vp m 0).Machine.clock;
  check "gc wait recorded" 400 (Machine.vp m 0).Machine.gc_wait_cycles;
  check "other advanced too" 500 (Machine.vp m 1).Machine.clock

(* --- the shared query stream --- *)

(* Three query kinds, each accepting only its own variant.  A run
   declines sampled candidates whose value is a multiple of 3, so the
   plan must hold only the steps the run applied. *)
type sact = Sa of int | Sb of int | Sc

let stream_accept k a =
  match (k, a) with 0, Sa _ | 1, Sb _ | 2, Sc -> true | _ -> false

let stream_gen k rng () =
  if not (Plan.Rng.chance rng 400) then None
  else
    match k with
    | 0 -> Some (Sa (Plan.Rng.below rng 50))
    | 1 -> Some (Sb (Plan.Rng.below rng 50))
    | _ -> Some Sc

(* Ask [kinds] of [s] in order; the action applied at each query. *)
let run_stream s kinds =
  Array.map
    (fun k ->
      match Plan.query s ~accept:(stream_accept k) ~gen:(stream_gen k) with
      | Some ((Sa n | Sb n) as a) when n mod 3 <> 0 ->
          Plan.applied s a;
          Some a
      | Some Sc ->
          Plan.applied s Sc;
          Some Sc
      | _ -> None)
    kinds

let prop_stream_replay =
  QCheck.Test.make ~count:300
    ~name:"a seeded stream's recorded plan replays the same actions"
    QCheck.(
      pair (int_bound 1_000_000)
        (array_of_size Gen.(int_range 0 120) (int_bound 2)))
    (fun (seed, kinds) ->
      let s = Plan.seeded ~seed () in
      let answers = run_stream s kinds in
      let plan = Plan.recorded s in
      let r = Plan.replaying plan in
      let replayed = run_stream r kinds in
      let applied_at =
        List.filter_map Fun.id
          (List.mapi
             (fun i a -> Option.map (fun _ -> i) a)
             (Array.to_list answers))
      in
      (* swap the first step for another kind's variant: that query
         must fall back to the default, every other one replay as
         before *)
      let wrong_variant_dropped =
        match plan with
        | [] -> true
        | { Plan.index; action } :: rest ->
            let other = match action with Sc -> Sa 1 | Sa _ | Sb _ -> Sc in
            let swapped =
              run_stream
                (Plan.replaying ({ Plan.index; action = other } :: rest))
                kinds
            in
            Array.for_all Fun.id
              (Array.mapi
                 (fun i a -> if i = index then a = None else a = answers.(i))
                 swapped)
      in
      answers = replayed
      && Plan.recorded r = plan
      && List.map (fun st -> st.Plan.index) plan = applied_at
      && Plan.applied_count s = List.length plan
      && Plan.queries s = Array.length kinds
      && Plan.queries r = Array.length kinds
      && wrong_variant_dropped)

(* --- plan files ---

   Each format as its header, a writer that saves a random plan of about
   [n] steps and returns whether the file loads back to it, and its
   loader. *)

type plan_file = {
  header : string;
  write : seed:int -> n:int -> string -> unit -> bool;
  load : string -> unit;
}

let random_steps ~seed ~n action =
  let rng = Plan.Rng.make seed in
  let index = ref 0 in
  List.init n (fun _ ->
      index := !index + 1 + Plan.Rng.below rng 4;
      { Plan.index = !index; action = action rng })

let plan_files =
  let below = Plan.Rng.below in
  [ { header = "# mst decision trace v2";
      write =
        (fun ~seed ~n path ->
          let plan =
            random_steps ~seed ~n (fun rng ->
                match below rng 3 with
                | 0 -> Explore.Tie_pick (below rng 8)
                | 1 -> Explore.Lock_jitter (below rng 500)
                | _ -> Explore.Force_preempt)
          in
          Explore.save path plan;
          fun () -> Explore.load path = plan);
      load = (fun path -> ignore (Explore.load path)) };
    { header = "# mst fault plan v2";
      write =
        (fun ~seed ~n path ->
          let plan =
            random_steps ~seed ~n (fun rng ->
                match below rng 4 with
                | 0 -> Fault.Vp_crash
                | 1 -> Fault.Vp_stall (below rng 900)
                | 2 -> Fault.Worker_crash (below rng 4)
                | _ -> Fault.Holder_crash)
          in
          Fault.save path plan;
          fun () -> Fault.load path = plan);
      load = (fun path -> ignore (Fault.load path)) };
    { header = "# mst command log v1";
      write =
        (fun ~seed ~n path ->
          let log =
            Cmdlog.generate ~seed ~requests:(n + 1) ~sessions:3 ~shards:3
          in
          Cmdlog.save path log;
          fun () -> Cmdlog.to_list (Cmdlog.load path) = Cmdlog.to_list log);
      load = (fun path -> ignore (Cmdlog.load path)) } ]

(* A saved plan round-trips; every strict prefix of a saved file (cut
   at a line boundary or inside a line, of an empty plan too), the file
   without any one of its steps, and the file under another format's
   header, are refused with [Plan.Corrupt]; a random byte mutation
   either loads or is refused the same way. *)
let prop_plan_files =
  QCheck.Test.make ~count:50
    ~name:"plan files round-trip and refuse damage"
    QCheck.(
      quad (int_bound 2) (int_bound 1_000_000) (int_bound 12)
        (pair (int_bound 4096) (int_bound 255)))
    (fun (k, seed, n, (pos, byte)) ->
      let f = List.nth plan_files k in
      let path = Filename.temp_file "mst-plan" ".plan" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let loads_back = f.write ~seed ~n path in
          let saved = In_channel.with_open_bin path In_channel.input_all in
          let outcome text =
            Out_channel.with_open_bin path (fun oc -> output_string oc text);
            match f.load path with
            | () -> `Loads
            | exception Plan.Corrupt _ -> `Refused
          in
          let round_trip = loads_back () in
          let prefixes_refused =
            List.for_all
              (fun cut -> outcome (String.sub saved 0 cut) = `Refused)
              (List.init (String.length saved) Fun.id)
          in
          let lines = String.split_on_char '\n' saved in
          let drops_refused =
            (* the header, the steps, the trailer and the empty piece
               after the last newline: drop each step line in turn *)
            List.for_all
              (fun i ->
                outcome
                  (String.concat "\n" (List.filteri (fun j _ -> j <> i) lines))
                = `Refused)
              (List.init (List.length lines - 3) (( + ) 1))
          in
          let body =
            String.sub saved (String.length f.header)
              (String.length saved - String.length f.header)
          in
          let foreign_refused =
            List.for_all
              (fun g ->
                g.header = f.header || outcome (g.header ^ body) = `Refused)
              plan_files
          in
          let mutated = Bytes.of_string saved in
          Bytes.set mutated (pos mod Bytes.length mutated) (Char.chr byte);
          ignore (outcome (Bytes.to_string mutated));
          round_trip && prefixes_refused && drops_refused
          && foreign_refused))

(* --- the command log's wave dispatcher --- *)

let arb_log =
  QCheck.(
    make
      ~print:(fun (es, slots) ->
        Printf.sprintf "slots %d: %s" slots
          (String.concat " "
             (List.map
                (fun e ->
                  Printf.sprintf "%d/%d" e.Cmdlog.session e.Cmdlog.shard)
                es)))
      Gen.(
        int_range 1 6 >>= fun sessions ->
        int_range 1 6 >>= fun shards ->
        let entry = pair (int_bound (sessions - 1)) (int_bound (shards - 1)) in
        pair
          (list_size (int_range 1 60) entry)
          (oneof [ int_range 1 5; return max_int ])
        >|= fun (keys, slots) ->
        ( List.mapi
            (fun lsn (session, shard) ->
              { Cmdlog.lsn; session; shard; kind = 0 })
            keys,
          slots )))

(* The waves against their definition, checked the quadratic way: they
   partition the log in order; each holds at most [slots]
   pairwise-independent entries; and each entry sits in the earliest
   wave past every earlier conflicting entry's wave that had room when
   it was placed (after every lower lsn). *)
let prop_schedule_waves =
  QCheck.Test.make ~count:500
    ~name:"schedule places each entry in its earliest legal wave" arb_log
    (fun (log, slots) ->
      let waves = Cmdlog.schedule ~slots log in
      let wave_of = Array.make (List.length log) (-1) in
      List.iteri
        (fun w wave -> List.iter (fun e -> wave_of.(e.Cmdlog.lsn) <- w) wave)
        waves;
      let in_order wave =
        List.sort (fun a b -> Int.compare a.Cmdlog.lsn b.Cmdlog.lsn) wave = wave
      in
      let independent wave =
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                a.Cmdlog.lsn = b.Cmdlog.lsn || not (Cmdlog.conflicts a b))
              wave)
          wave
      in
      let earlier e = List.filter (fun f -> f.Cmdlog.lsn < e.Cmdlog.lsn) log in
      let earliest e =
        let floor =
          List.fold_left
            (fun acc f ->
              if Cmdlog.conflicts e f then
                Int.max acc (wave_of.(f.Cmdlog.lsn) + 1)
              else acc)
            0 (earlier e)
        in
        let room w =
          List.length
            (List.filter (fun f -> wave_of.(f.Cmdlog.lsn) = w) (earlier e))
          < slots
        in
        let w = wave_of.(e.Cmdlog.lsn) in
        w >= floor && room w
        && List.for_all
             (fun w' -> not (room w'))
             (List.init (w - floor) (( + ) floor))
      in
      List.length (List.concat waves) = List.length log
      && Array.for_all (fun w -> w >= 0) wave_of
      && List.for_all
           (fun w ->
             w <> [] && in_order w && List.length w <= slots && independent w)
           waves
      && List.for_all earliest log)

(* --- FNV-1a --- *)

(* The helper keeps 63 bits, but xor and multiply commute with
   truncation, so its low 32 bits are the standard 32-bit FNV-1a. *)
let low32 h = h land 0xFFFF_FFFF

let test_fnv_vectors () =
  List.iter
    (fun (s, want) ->
      check (Printf.sprintf "fnv1a-32 %S" s) want (low32 (Fnv.string s)))
    [ ("", 0x811c9dc5); ("a", 0xe40c292c); ("foobar", 0xbf9cf968) ];
  check "string folds mix over its bytes"
    (Fnv.mix (Fnv.mix Fnv.offset (Char.code 'o')) (Char.code 'k'))
    (Fnv.string "ok")

(* Reference 32-bit FNV-1a, truncating after every step. *)
let fnv32 s =
  String.fold_left
    (fun h c -> low32 ((h lxor Char.code c) * 0x01000193))
    0x811c9dc5 s

let prop_fnv_low32 =
  QCheck.Test.make ~count:300
    ~name:"Fnv.string is non-negative and its low 32 bits are FNV-1a"
    QCheck.string
    (fun s ->
      let h = Fnv.string s in
      h >= 0 && low32 h = fnv32 s)

let () =
  Alcotest.run "vkernel"
    [ ("cost_model", [ Alcotest.test_case "seconds" `Quick test_seconds ]);
      ("spinlock",
       [ Alcotest.test_case "uncontended" `Quick test_lock_uncontended;
         Alcotest.test_case "contended" `Quick test_lock_contended;
         Alcotest.test_case "sequential" `Quick test_lock_sequential_no_contention;
         Alcotest.test_case "disabled" `Quick test_lock_disabled ]);
      ("spinlock_properties",
       [ QCheck_alcotest.to_alcotest prop_locked_op_model;
         QCheck_alcotest.to_alcotest prop_locked_op_disabled;
         QCheck_alcotest.to_alcotest prop_min_runnable_deterministic ]);
      ("trace", [ QCheck_alcotest.to_alcotest prop_trace_ring ]);
      ("plan",
       [ QCheck_alcotest.to_alcotest prop_stream_replay;
         QCheck_alcotest.to_alcotest prop_plan_files ]);
      ("cmdlog", [ QCheck_alcotest.to_alcotest prop_schedule_waves ]);
      ("fnv",
       [ Alcotest.test_case "vectors" `Quick test_fnv_vectors;
         QCheck_alcotest.to_alcotest prop_fnv_low32 ]);
      ("mailbox",
       [ Alcotest.test_case "timing" `Quick test_mailbox;
         Alcotest.test_case "fifo" `Quick test_mailbox_fifo_order;
         Alcotest.test_case "multi-vp order" `Quick
           test_mailbox_multi_vp_order ]);
      ("devices",
       [ Alcotest.test_case "display drains" `Quick test_display_drains;
         Alcotest.test_case "display backpressure" `Quick test_display_backpressure;
         Alcotest.test_case "display multi-vp contention" `Quick
           test_display_multi_vp_contention;
         Alcotest.test_case "input queue" `Quick test_input_queue;
         Alcotest.test_case "input order" `Quick test_input_order;
         Alcotest.test_case "input multi-vp contention" `Quick
           test_input_multi_vp_contention ]);
      ("machine",
       [ Alcotest.test_case "min runnable" `Quick test_machine_min_runnable;
         Alcotest.test_case "policy ties" `Quick test_machine_policy_ties;
         Alcotest.test_case "bus factor" `Quick test_machine_bus_factor;
         Alcotest.test_case "synchronize" `Quick test_machine_synchronize ]);
      ("calendar",
       [ Alcotest.test_case "basic order" `Quick test_calendar_basic;
         Alcotest.test_case "fifo on equal keys" `Quick
           test_calendar_fifo_on_equal_keys;
         QCheck_alcotest.to_alcotest prop_calendar_sorted_stable;
         QCheck_alcotest.to_alcotest prop_calendar_model ]);
      ("pending",
       [ QCheck_alcotest.to_alcotest prop_pending_model;
         QCheck_alcotest.to_alcotest prop_pending_matches_min_runnable ]) ]
