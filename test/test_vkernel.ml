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

let test_lock_reset () =
  let l = Spinlock.make ~enabled:true ~cost:cm "t" in
  ignore (Spinlock.locked_op l ~now:0 ~op_cycles:10);
  Spinlock.reset_stats l;
  check "stats cleared" 0 (Spinlock.acquisitions l)

(* Regression: a stats reset must not rewind the lock's timeline.  It used
   to clear [free_at] too, which let an acquire issued inside the previous
   critical section start before that section finished. *)
let test_lock_reset_keeps_timeline () =
  let l = Spinlock.make ~enabled:true ~cost:cm "t" in
  let fin1 = Spinlock.locked_op l ~now:0 ~op_cycles:1000 in
  Spinlock.reset_stats l;
  let fin2 = Spinlock.locked_op l ~now:10 ~op_cycles:0 in
  check_bool "second acquire still serialized after the first" true
    (fin2 - cm.Cost_model.lock_acquire >= fin1);
  check "the post-reset acquire was contended" 1 (Spinlock.contended l)

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
  let mb = Mailbox.make "gc" in
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
  let mb = Mailbox.make "q" in
  Mailbox.send mb ~now:0 1;
  Mailbox.send mb ~now:0 2;
  (match Mailbox.receive mb ~now:0 with
   | Mailbox.Message v -> check "first in, first out" 1 v
   | _ -> Alcotest.fail "expected message")

(* --- display controller --- *)

let test_display_drains () =
  let d = Devices.make_display ~enabled_locks:true ~cost:cm in
  let t1 = Devices.display_enqueue d ~now:0 in
  check_bool "enqueue is quick when the queue is empty" true
    (t1 < cm.Cost_model.display_cmd);
  check "one command" 1 (Devices.display_commands d)

let test_display_backpressure () =
  let d = Devices.make_display ~enabled_locks:true ~cost:cm in
  (* flood the queue from a single producer at time 0 *)
  let t = ref 0 in
  for _ = 1 to cm.Cost_model.display_capacity + 8 do
    t := Devices.display_enqueue d ~now:!t
  done;
  check_bool "producer eventually waits for queue space" true
    (Devices.display_producer_wait d > 0)

(* --- input queue --- *)

let test_input_queue () =
  let q = Devices.make_input_queue ~enabled_locks:true ~cost:cm in
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
  let q = Devices.make_input_queue ~enabled_locks:false ~cost:cm in
  Devices.inject q ~time:20 ~payload:2;
  Devices.inject q ~time:10 ~payload:1;
  let _, ev1 = Devices.poll q ~now:100 ~op_cycles:1 in
  let _, ev2 = Devices.poll q ~now:100 ~op_cycles:1 in
  Alcotest.(check (option int)) "earlier event first" (Some 1) ev1;
  Alcotest.(check (option int)) "later event second" (Some 2) ev2

(* --- the trace ring --- *)

(* For any capacity and event count: [recorded] counts every event ever
   recorded (monotone through wraparound), and [last] returns exactly the
   newest [capacity] events, oldest first, even when asked for more. *)
let prop_trace_ring =
  QCheck.Test.make ~count:200
    ~name:"trace ring keeps the newest events through wraparound"
    QCheck.(pair (int_range 1 16) (int_range 0 100))
    (fun (capacity, total) ->
      let t = Trace.create ~capacity () in
      for i = 0 to total - 1 do
        Trace.record t ~vp:(i mod 3) ~time:i ~kind:Trace.Mutation ~resource:"r"
          ~detail:""
      done;
      let expect n =
        List.init (min n total) (fun i -> total - min n total + i)
      in
      Trace.recorded t = total
      && List.map (fun e -> e.Trace.time) (Trace.last t capacity)
         = expect capacity
      && List.map (fun e -> e.Trace.time) (Trace.last t (capacity + 50))
         = expect capacity)

(* --- multi-vp queue ordering --- *)

(* Three producers interleaving sends: the mailbox is a strict FIFO —
   every message is delivered exactly once, in send order, regardless of
   which vp sent it. *)
let test_mailbox_multi_vp_order () =
  let mb = Mailbox.make "ipc" in
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
  let d = Devices.make_display ~enabled_locks:true ~cost:cm in
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
  let q = Devices.make_input_queue ~enabled_locks:true ~cost:cm in
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
  check "nothing left pending" 0 (Devices.input_pending q);
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
  check "min key" 10 (match Calendar.min_key c with Some k -> k | None -> -1);
  (match Calendar.peek c with
   | Some (10, "a") -> ()
   | _ -> Alcotest.fail "peek should see the minimum without removing it");
  check "peek leaves length" 3 (Calendar.length c);
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
   calls ([add], [top_key], [take]) and the option-returning wrappers,
   checked op by op against a list kept in (key, insertion) order.  Keys
   come from a small range, so equal keys are common; [Drain] empties the
   heap, and the operations after it refill it. *)
type cal_op = Add of int | Take | Top_key | Pop | Min_key | Peek | Drain

let print_cal_op = function
  | Add k -> Printf.sprintf "add %d" k
  | Take -> "take"
  | Top_key -> "top_key"
  | Pop -> "pop"
  | Min_key -> "min_key"
  | Peek -> "peek"
  | Drain -> "drain"

let cal_op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map (fun k -> Add k) (int_range 0 12));
        (2, return Take);
        (1, return Top_key);
        (2, return Pop);
        (1, return Min_key);
        (1, return Peek);
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
            | Min_key -> Calendar.min_key c = Option.map fst (List.nth_opt !model 0)
            | Peek -> Calendar.peek c = List.nth_opt !model 0
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

let () =
  Alcotest.run "vkernel"
    [ ("cost_model", [ Alcotest.test_case "seconds" `Quick test_seconds ]);
      ("spinlock",
       [ Alcotest.test_case "uncontended" `Quick test_lock_uncontended;
         Alcotest.test_case "contended" `Quick test_lock_contended;
         Alcotest.test_case "sequential" `Quick test_lock_sequential_no_contention;
         Alcotest.test_case "disabled" `Quick test_lock_disabled;
         Alcotest.test_case "reset" `Quick test_lock_reset;
         Alcotest.test_case "reset keeps timeline" `Quick
           test_lock_reset_keeps_timeline ]);
      ("spinlock_properties",
       [ QCheck_alcotest.to_alcotest prop_locked_op_model;
         QCheck_alcotest.to_alcotest prop_locked_op_disabled;
         QCheck_alcotest.to_alcotest prop_min_runnable_deterministic ]);
      ("trace", [ QCheck_alcotest.to_alcotest prop_trace_ring ]);
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
