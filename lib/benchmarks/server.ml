(* E17: the image-server workload.

   The paper's programming environment is interactive: browse, inspect,
   compile.  This workload turns those activities into a request/response
   server so the engine can be measured under many mostly-idle sessions —
   the regime the event-calendar engine (Config.Engine_calendar) exists
   for.  N simulated user sessions issue requests over the kernel's
   virtual-time IPC (a request mailbox plus a Semaphore signalled through
   the timer calendar); a pool of Smalltalk worker Processes serves them
   with the macro-benchmark tools (print definition, inspector, compile,
   hierarchy) and reports each completion back through a primitive.

   The generator side runs engine-side as [State.Run_hook] timers, so
   arrivals are part of the deterministic virtual-time event stream:

   - open loop: every session's arrivals are prescheduled at fixed
     inter-arrival intervals, whether or not earlier requests finished —
     the overload-capable generator;
   - closed loop: each session issues its next request [think_ms] after
     the previous one completes — the think-time user model.

   Admission control caps in-flight requests: an arrival over the cap is
   rejected (counted, never queued), which bounds queueing delay under
   open-loop overload. *)

type loop = Open | Closed

type params = {
  sessions : int;       (* simulated users *)
  workers : int;        (* Smalltalk server Processes *)
  loop : loop;
  requests : int;       (* arrivals per session *)
  think_ms : int;       (* closed loop: completion -> next arrival *)
  interval_ms : int;    (* open loop: inter-arrival within a session *)
  admit : int;          (* in-flight cap; 0 = no admission control *)
}

let default_params =
  { sessions = 4; workers = 2; loop = Closed; requests = 4;
    think_ms = 20; interval_ms = 50; admit = 0 }

(* Latency percentiles, in cycles.  [pmax] is the worst request. *)
type percentiles = { p50 : int; p90 : int; p99 : int; pmax : int }

type stats = {
  offered : int;        (* arrivals generated *)
  completed : int;
  rejected : int;       (* refused by admission control *)
  latency : percentiles;
  per_session : int array;  (* completions per session *)
  run_cycles : int;     (* virtual time spent serving *)
  sim_seconds : float;
  steps : int;          (* bytecodes executed across all processors *)
  engine_events : int;
  parks : int;
  quiesced : bool;      (* the run ended with every session served out *)
}

(* The server classes ride on the macro-benchmark tools: [handle:] maps a
   request id onto one of four environment activities.  Each worker owns
   its own tool instance (per-session tool state); the compile request
   still funnels through the shared BenchScratch class, so workers
   genuinely contend for the compiler's shared structures. *)
let server_classes = {st|
CLASS ImageServer SUPER Object IVARS bench
METHODS ImageServer
setUp
    bench := MacroBenchmarks new.
    bench setUp
!
handle: rid
    | kind |
    kind := rid \\ 4.
    kind = 0 ifTrue: [^bench printClassDefinition].
    kind = 1 ifTrue: [^bench createInspectorView].
    kind = 2 ifTrue: [^bench compileDummyMethod].
    ^bench printClassHierarchy
!
serveLoop
    | rid |
    [true] whileTrue: [
        ServerPool wait.
        rid := Mirror nextRequest.
        rid >= 0 ifTrue: [
            self handle: rid.
            Mirror requestDone: rid]]
!
|st}

(* Run the server workload on a fresh VM built from [config].  The
   macro-benchmark classes and the server classes are loaded, the worker
   pool is spawned, the generators are installed as calendar timers, and
   the VM runs until quiescence: every arrival issued, every accepted
   request completed, every worker back on [ServerPool wait]. *)
let run ?(max_cycles = 200_000_000_000) config p =
  if p.sessions < 1 || p.workers < 1 || p.requests < 1 then
    invalid_arg "Server.run: sessions, workers and requests must be >= 1";
  let vm = Vm.create config in
  Vm.load_classes vm Macro.benchmark_classes;
  Vm.load_classes vm server_classes;
  (* the request pool semaphore, created as an image global so the worker
     Processes and the engine-side generators name the same object *)
  ignore (Vm.eval vm "ServerPool := Semaphore new. 0");
  let pool_cell =
    ref (match Universe.get_global vm.Vm.u "ServerPool" with
         | Some sem -> sem
         | None -> failwith "Server.run: ServerPool global missing")
  in
  Heap.add_root vm.Vm.heap pool_cell;
  for w = 1 to p.workers do
    ignore
      (Vm.spawn vm ~priority:5 ~name:(Printf.sprintf "server-%d" w)
         "| s | s := ImageServer new. s setUp. s serveLoop")
  done;
  let sh = vm.Vm.shared in
  let cm = sh.State.cm in
  let cpms = max 1 (cm.Cost_model.cycles_per_second / 1000) in
  let think_cycles = p.think_ms * cpms in
  let interval_cycles = max 1 (p.interval_ms * cpms) in
  let mbox = Mailbox.make () in
  sh.State.request_mailbox <- Some mbox;
  let total = p.sessions * p.requests in
  let arrival = Array.make total (-1) in
  let completion = Array.make total (-1) in
  let rid_session = Array.make total (-1) in
  let issued = Array.make p.sessions 0 in
  let per_session = Array.make p.sessions 0 in
  let next_rid = ref 0 in
  let offered = ref 0 in
  let completed = ref 0 in
  let rejected = ref 0 in
  let in_flight = ref 0 in
  let add_timer ~key action = Calendar.add sh.State.timers ~key action in
  (* issue one request for [session] at virtual time [now]: admission
     check, then mailbox send + pool signal at the same instant *)
  let rec issue ~session ~now =
    let rid = !next_rid in
    incr next_rid;
    incr offered;
    issued.(session) <- issued.(session) + 1;
    rid_session.(rid) <- session;
    if p.admit > 0 && !in_flight >= p.admit then begin
      incr rejected;
      (* a refused closed-loop user thinks and tries again with the
         session's next request *)
      if p.loop = Closed && issued.(session) < p.requests then
        add_timer ~key:(now + think_cycles)
          (State.Run_hook (fun ~now -> issue ~session ~now))
    end
    else begin
      arrival.(rid) <- now;
      incr in_flight;
      Mailbox.send mbox ~now rid;
      let cell = ref !pool_cell in
      Heap.add_root vm.Vm.heap cell;
      add_timer ~key:now (State.Signal_sem cell)
    end
  in
  sh.State.on_request_done <-
    (fun ~rid ~now ->
      if rid >= 0 && rid < total && completion.(rid) < 0 then begin
        completion.(rid) <- now;
        decr in_flight;
        incr completed;
        let session = rid_session.(rid) in
        per_session.(session) <- per_session.(session) + 1;
        if p.loop = Closed && issued.(session) < p.requests then
          add_timer ~key:(now + think_cycles)
            (State.Run_hook (fun ~now -> issue ~session ~now))
      end);
  (* generators: stagger the sessions so they do not arrive in lockstep *)
  let base = Machine.max_clock vm.Vm.machine + cpms in
  let stagger =
    max 1
      ((match p.loop with Open -> interval_cycles | Closed -> think_cycles + 1)
       / p.sessions)
  in
  (match p.loop with
   | Open ->
       for s = 0 to p.sessions - 1 do
         for k = 0 to p.requests - 1 do
           add_timer ~key:(base + (s * stagger) + (k * interval_cycles))
             (State.Run_hook (fun ~now -> issue ~session:s ~now))
         done
       done
   | Closed ->
       for s = 0 to p.sessions - 1 do
         add_timer ~key:(base + (s * stagger))
           (State.Run_hook (fun ~now -> issue ~session:s ~now))
       done);
  let before_cycles = Vm.cycles vm in
  let outcome = Vm.run ~max_cycles vm in
  let run_cycles = Vm.cycles vm - before_cycles in
  Heap.remove_root vm.Vm.heap pool_cell;
  sh.State.request_mailbox <- None;
  sh.State.on_request_done <- (fun ~rid:_ ~now:_ -> ());
  let latencies =
    Array.of_seq
      (Seq.filter_map
         (fun rid ->
           if completion.(rid) >= 0 && arrival.(rid) >= 0 then
             Some (completion.(rid) - arrival.(rid))
           else None)
         (Seq.init total Fun.id))
  in
  Array.sort compare latencies;
  let steps =
    Array.fold_left (fun acc st -> acc + st.State.steps) 0 vm.Vm.states
  in
  ( vm,
    { offered = !offered;
      completed = !completed;
      rejected = !rejected;
      latency =
        { p50 = Report.percentile latencies 50;
          p90 = Report.percentile latencies 90;
          p99 = Report.percentile latencies 99;
          pmax = (if Array.length latencies = 0 then 0
                  else latencies.(Array.length latencies - 1)) };
      per_session;
      run_cycles;
      sim_seconds = Cost_model.seconds cm run_cycles;
      steps;
      engine_events = vm.Vm.engine_events;
      parks = vm.Vm.parks;
      quiesced =
        (outcome = Vm.Deadlock && !offered = total
         && !completed + !rejected = total) } )

let pp_stats fmt ~cm (s : stats) =
  let ms c = float_of_int c /. float_of_int cm.Cost_model.cycles_per_second
             *. 1000. in
  Format.fprintf fmt
    "requests: offered %d, completed %d, rejected %d%s@\n\
     latency (ms): p50 %.2f  p90 %.2f  p99 %.2f  max %.2f@\n\
     virtual time: %.3f s (%d cycles); throughput %.1f requests/sim-s@\n\
     engine: %d events, %d parks, %d bytecodes@\n"
    s.offered s.completed s.rejected
    (if s.quiesced then "" else "  [DID NOT QUIESCE]")
    (ms s.latency.p50) (ms s.latency.p90) (ms s.latency.p99)
    (ms s.latency.pmax)
    s.sim_seconds s.run_cycles
    (if s.sim_seconds > 0. then float_of_int s.completed /. s.sim_seconds
     else 0.)
    s.engine_events s.parks s.steps
