(* Tests for the extended protocol: perform:, doesNotUnderstand:
   overriding (message-forwarding proxies), Delay timers, and sorting. *)

let vm = lazy (Vm.create (Config.testing ()))
let ev src = Vm.eval_to_string (Lazy.force vm) src
let check_eval name expected src = Alcotest.(check string) name expected (ev src)
let check_bool = Alcotest.(check bool)

let test_perform () =
  check_eval "perform:" "24" "4 perform: #factorial";
  check_eval "perform:with:" "7" "3 perform: #+ with: 4";
  check_eval "perform:with:with:" "'bcd'"
    "'abcde' perform: #copyFrom:to: with: 2 with: 4";
  check_eval "perform: dispatches virtually" "'#sym'"
    "#sym perform: #printString";
  check_bool "perform: with a non-symbol raises" true
    (try ignore (ev "3 perform: 4"); false
     with Interp.Does_not_understand _ -> true)

let test_dnu_default () =
  check_bool "default doesNotUnderstand: reports an error" true
    (try ignore (ev "3 zork"); false
     with State.Vm_error msg ->
       Alcotest.(check bool) "mentions the selector" true
         (let rec find i =
            i + 4 <= String.length msg
            && (String.sub msg i 4 = "zork" || find (i + 1))
          in
          find 0);
       true)

let test_dnu_override () =
  let vm' = Lazy.force vm in
  Vm.load_classes vm'
    {st|
CLASS LoggingProxy SUPER Object IVARS log target
METHODS LoggingProxy
setTarget: anObject
    target := anObject.
    log := OrderedCollection new
!
log
    ^log
!
doesNotUnderstand: aMessage
    "record and forward: the classic Smalltalk proxy"
    log add: aMessage selector.
    aMessage arguments size = 0
        ifTrue: [^target perform: aMessage selector].
    aMessage arguments size = 1
        ifTrue: [^target perform: aMessage selector
                         with: (aMessage arguments at: 1)].
    ^target perform: aMessage selector
            with: (aMessage arguments at: 1)
            with: (aMessage arguments at: 2)
!
|st};
  check_eval "proxy forwards unary" "24"
    "| p | p := LoggingProxy new. p setTarget: 4. p factorial";
  check_eval "proxy forwards binary" "9"
    "| p | p := LoggingProxy new. p setTarget: 4. p + 5";
  check_eval "proxy records the traffic" "2"
    "| p | p := LoggingProxy new. p setTarget: 4. p factorial. p even. p log size";
  check_eval "message selector is a Symbol" "true"
    "| p | p := LoggingProxy new. p setTarget: 4. p squared. (p log at: 1) == #squared"

let test_delay () =
  check_eval "delay elapses virtual time" "true"
    {st|
| before after |
before := Mirror millisecondClockValue.
(Delay forMilliseconds: 120) wait.
after := Mirror millisecondClockValue.
after - before >= 120
|st};
  check_eval "delays wake in order" "'ab'"
    {st|
| log sem kit |
log := WriteStream on: (String new: 4).
sem := Semaphore new.
[ (Delay forMilliseconds: 200) wait. log nextPutAll: 'b'. sem signal ] fork.
[ (Delay forMilliseconds: 50) wait. log nextPutAll: 'a'. sem signal ] fork.
sem wait. sem wait.
log contents
|st}

let test_delay_multiprocessor () =
  let vm = Vm.create (Config.testing ~processors:3 ()) in
  Alcotest.(check string) "delays work across processors" "3"
    (Vm.eval_to_string vm
       {st|
| sem count holder |
sem := Semaphore new.
holder := Array with: 0.
1 to: 3 do: [:k |
    [ (Delay forMilliseconds: k * 30) wait.
      holder at: 1 put: (holder at: 1) + 1.
      sem signal ] fork].
1 to: 3 do: [:k | sem wait].
count := holder at: 1.
count
|st})

(* Regression for the Delay deadline bug: the timer primitive must add
   the *current* clock itself, so a Delay created late in a run still
   waits its full duration.  Before the fix, the deadline came from the
   image's millisecondClockValue — truncated to whole milliseconds — so a
   late Delay could fire up to a millisecond early, and with a clock rate
   under 1000 cycles/s everything fired immediately.  Two sequential
   waits double-check that each one blocks relative to its own start. *)
let test_delay_late_in_run () =
  check_eval "sequential late delays each block their full duration" "true"
    {st|
| t0 t1 t2 spin |
"spin virtual time well away from zero first"
spin := 0.
[spin < 5000] whileTrue: [spin := spin + 1].
t0 := Mirror millisecondClockValue.
(Delay forMilliseconds: 30) wait.
t1 := Mirror millisecondClockValue.
(Delay forMilliseconds: 30) wait.
t2 := Mirror millisecondClockValue.
(t1 - t0 >= 30) and: [(t2 - t1 >= 30) and: [t2 - t0 >= 60]]
|st}

(* Timers across VPs must fire in deadline order under every scheduler
   and engine: k Processes fork with distinct random delays; the log must
   read back in sorted-delay order. *)
let timer_order_prop ~scheduler ~engine ~name =
  QCheck.Test.make ~count:12 ~name
    QCheck.(pair (int_range 2 5)
              (list_of_size Gen.(return 5) (int_range 0 60)))
    (fun (processors, offsets) ->
      (* distinct durations: equal deadlines have no required order *)
      let durations =
        List.mapi (fun i off -> (10 * (i + 1)) + (off * 5) + i) offsets
        |> List.sort_uniq compare
      in
      let k = List.length durations in
      let tagged = List.mapi (fun i d -> (Char.chr (97 + i), d)) durations in
      let shuffled =
        (* fork order differs from deadline order *)
        List.sort (fun (_, a) (_, b) -> compare (a mod 7) (b mod 7)) tagged
      in
      let forks =
        shuffled
        |> List.map (fun (c, d) ->
               Printf.sprintf
                 "[ (Delay forMilliseconds: %d) wait. log nextPutAll: '%c'. \
                  sem signal ] fork." d c)
        |> String.concat "\n"
      in
      let src =
        Printf.sprintf
          "| log sem |\nlog := WriteStream on: (String new: %d).\n\
           sem := Semaphore new.\n%s\n%d timesRepeat: [sem wait].\n\
           log contents" k forks k
      in
      let expected =
        tagged
        |> List.sort (fun (_, a) (_, b) -> compare a b)
        |> List.map (fun (c, _) -> String.make 1 c)
        |> String.concat ""
      in
      let config =
        { (Config.testing ~processors ()) with
          Config.scheduler; Config.engine }
      in
      let vm = Vm.create config in
      Vm.eval_to_string vm src = Printf.sprintf "'%s'" expected)

let timer_order_props =
  [ timer_order_prop ~scheduler:Config.Sched_locked
      ~engine:Config.Engine_scan
      ~name:"timers fire in deadline order (locked, scan)";
    timer_order_prop ~scheduler:Config.Sched_stealing
      ~engine:Config.Engine_scan
      ~name:"timers fire in deadline order (stealing, scan)";
    timer_order_prop ~scheduler:Config.Sched_locked
      ~engine:Config.Engine_calendar
      ~name:"timers fire in deadline order (locked, calendar)";
    timer_order_prop ~scheduler:Config.Sched_stealing
      ~engine:Config.Engine_calendar
      ~name:"timers fire in deadline order (stealing, calendar)" ]

(* The calendar engine parks every idle processor; with the whole machine
   asleep and one pending timer it must jump virtual time to the deadline
   and wake up — not report a deadlock. *)
let test_calendar_all_parked_timer () =
  let config =
    { (Config.testing ~processors:4 ()) with
      Config.engine = Config.Engine_calendar }
  in
  let vm = Vm.create config in
  Alcotest.(check string) "all-idle machine wakes for the timer" "42"
    (Vm.eval_to_string vm "(Delay forMilliseconds: 100) wait. 42");
  Alcotest.(check bool) "idle processors actually parked" true (vm.Vm.parks > 0)

(* The same machine with genuinely nothing left must still deadlock. *)
let test_calendar_deadlock_detected () =
  let config =
    { (Config.testing ~processors:2 ()) with
      Config.engine = Config.Engine_calendar }
  in
  let vm = Vm.create config in
  Alcotest.(check bool) "wait on a never-signalled semaphore deadlocks" true
    (try
       ignore (Vm.eval_to_string vm "Semaphore new wait. 1");
       false
     with Vm.Error _ -> true)

(* Golden engine observables: exact cycle totals, per-VP step counts,
   engine events and scavenge pauses for a fixed set of runs covering
   every engine path — the idle poll, Table 2's idle and busy states
   (nearly all of its bytecodes), timers firing mid-run, stealing,
   major slices, forced cycle completions mid-step, a cycle limit reached
   mid-interleaving, a policy answering tie queries, an injected crash,
   and the calendar engine's parking.  Any change to how the engine
   selects, batches or accounts shows up here as a different number. *)
let engine_signature ?(extra = "") vm =
  let m = vm.Vm.machine in
  let steps =
    List.init (Machine.processors m) (fun i ->
        string_of_int (Machine.vp m i).Machine.steps)
  in
  Printf.sprintf "cycles=%d steps=%s events=%d pauses=%s%s" (Vm.cycles vm)
    (String.concat "," steps) vm.Vm.engine_events
    (String.concat "," (List.rev_map string_of_int vm.Vm.scavenge_pause_costs))
    extra

let golden_alloc_source =
  "| s a | s := 0. 1 to: 600 do: [:i | a := Array new: 16. a at: 1 put: i. \
   s := s + (a at: 1) printString size]. s"

let golden_eval ?(busy = 0) ?(idle = 0) config source =
  let vm = Vm.create config in
  ignore (Workloads.spawn_busy vm busy);
  ignore (Workloads.spawn_idle vm idle);
  ignore (Vm.eval vm source);
  vm

let golden_bs () = golden_eval (Config.testing ()) golden_alloc_source

let golden_ms_busy () =
  golden_eval ~busy:4 (Config.testing ~processors:5 ()) golden_alloc_source

let golden_ms_idle () =
  golden_eval ~idle:4 (Config.testing ~processors:5 ()) golden_alloc_source

(* Table 2's busy state stopped by [Vm.run ~max_cycles] while the five
   interpreters are interleaving one bytecode at a time: the limit must
   stop every processor at the first selection past it, so the per-VP
   steps and clocks pin where each one stopped. *)
let golden_cycle_limit () =
  let vm = Vm.create (Config.testing ~processors:5 ()) in
  ignore (Workloads.spawn_busy vm 4);
  let proc = Vm.spawn vm golden_alloc_source in
  let outcome =
    match Vm.run ~max_cycles:200_000 ~watch:proc vm with
    | Vm.Finished _ -> "finished"
    | Vm.Deadlock -> "deadlock"
    | Vm.Cycle_limit -> "cycle-limit"
  in
  let m = vm.Vm.machine in
  let clocks =
    List.init (Machine.processors m) (fun i ->
        string_of_int (Machine.vp m i).Machine.clock)
  in
  engine_signature vm
    ~extra:(Printf.sprintf " outcome=%s clocks=%s" outcome
              (String.concat "," clocks))

let golden_ms_delay () =
  golden_eval ~busy:1 (Config.testing ~processors:3 ())
    {st|
| sem holder s |
sem := Semaphore new.
holder := Array with: 0.
1 to: 3 do: [:k |
    [ (Delay forMilliseconds: k * 7) wait.
      holder at: 1 put: (holder at: 1) + k.
      sem signal ] fork].
s := 0. 1 to: 200 do: [:i | s := s + i printString size].
1 to: 3 do: [:k | sem wait].
(holder at: 1) + s
|st}

let golden_stealing () =
  golden_eval ~busy:2 (Testkit.stealing_config ~processors:3 ())
    golden_alloc_source

let major_config ~processors ~old_words =
  { (Config.testing ~processors ()) with
    Config.major_enabled = true;
    eden_words = 2048;
    survivor_words = 1024;
    tenure_age = 1;
    old_words;
    major_budget = 2_000 }

let golden_major () =
  let vm =
    golden_eval ~busy:1 (major_config ~processors:2 ~old_words:(96 * 1024))
      "| keep s | keep := Array new: 64. s := 0. 1 to: 1500 do: [:i | \
       keep at: i \\\\ 64 + 1 put: (Array new: 16). s := s + (i \\\\ 1000)]. s"
  in
  let mj = Option.get vm.Vm.major in
  engine_signature vm
    ~extra:(Printf.sprintf " slices=%d cycles=%d" (Major.slices mj)
              (Major.cycles_completed mj))

(* The same churn in an old space barely larger than the image, with a
   5000-slot Array (too large for eden, so allocated straight in old
   space) every 100 iterations: old space runs out mid-step, and the
   emergency path force-completes a cycle and synchronizes every clock
   in the middle of a bytecode.  With one processor the stepping one is
   alone on the pending heap, so only the rendezvous test ends its
   batches for a due slice. *)
let golden_major_forced ~processors ~busy ~old_words () =
  let vm =
    golden_eval ~busy (major_config ~processors ~old_words)
      "| keep big s | keep := Array new: 64. s := 0. 1 to: 1500 do: [:i | \
       keep at: i \\\\ 64 + 1 put: (Array new: 16). \
       i \\\\ 100 = 0 ifTrue: [big := Array new: 5000]. \
       s := s + (i \\\\ 1000)]. s"
  in
  let mj = Option.get vm.Vm.major in
  engine_signature vm
    ~extra:(Printf.sprintf " forced_allocs=%d slices=%d cycles=%d"
              vm.Vm.major_forced_allocs (Major.slices mj)
              (Major.cycles_completed mj))

(* E18's configuration (4 VPs, a 2048-word eden, tenure age 1, the
   incremental collector on) on a short churn.  A cycle's first slice
   scans the universe's roots in the order of its symbol and global
   tables' buckets, so a VM whose tables iterate in another order greys
   objects in another order, and a budgeted slice that ends inside the
   reordered stretch costs different cycles: the digest of every slice
   cost pins that order.  With a 320-object window a slice boundary
   falls among global Associations that share a bucket, so even a table
   with the same buckets but each chain reversed changes the digest. *)
let golden_e18_slices () =
  let config =
    { (Config.ms ~processors:4 ()) with
      Config.eden_words = 2048;
      survivor_words = 1024;
      tenure_age = 1;
      old_words = 256 * 1024;
      major_enabled = true }
  in
  let vm = Vm.create config in
  Vm.load_classes vm
    "CLASS GcChurn SUPER Object\n\
     METHODS GcChurn\n\
     churn: n\n\
    \    | keep p |\n\
    \    keep := Array new: 320.\n\
    \    1 to: n do: [:i |\n\
    \        p := Point x: i y: i.\n\
    \        (Array new: 16) at: 1 put: p.\n\
    \        keep at: i \\\\ 320 + 1 put: (Array with: p with: i)].\n\
    \    ^n\n\
     !\n";
  ignore (Vm.eval vm "GcChurn new churn: 3000");
  let costs = Major.slice_costs (Option.get vm.Vm.major) in
  Printf.sprintf "cycles=%d slices=%d costs=%s" (Vm.cycles vm)
    (List.length costs)
    (Digest.to_hex
       (Digest.string (String.concat "," (List.map string_of_int costs))))

let golden_explorer () =
  let setup = Explorer.ms_setup ~quick:true () in
  let d = Explore.seeded ~seed:3 () in
  let vm = Vm.create setup.Explorer.config in
  Machine.set_policy vm.Vm.machine (Some (Explore.policy d));
  ignore (Workloads.spawn_busy vm setup.Explorer.busy);
  ignore (Vm.eval vm setup.Explorer.source);
  engine_signature vm ~extra:(Printf.sprintf " queries=%d" (Explore.queries d))

let golden_crash () =
  (* index 68 is the first injection query of this run that lands on a
     scheduling check, so exactly one processor crashes *)
  let inj = Fault.replay (Testkit.crash_plan 68) in
  let vm = Testkit.fault_vm (Some inj) in
  ignore (Workloads.spawn_busy vm 4);
  ignore (Vm.eval vm Testkit.busy_eval_source);
  engine_signature vm
    ~extra:(Printf.sprintf " crashes=%d" vm.Vm.crashes_delivered)

(* The stealing scheduler's own paths, beyond the plain [golden_stealing]
   run: six forked Processes that yield in a loop, on four processors
   with two busy ones, and vp 0 crashing mid-run.  Under the MS queue the
   crashed Process stays in the dead owner's deque and survivors steal
   out of it; under the BS queue it is not queued, so failover pushes it
   into a live processor's deque, and picks and steals remove from the
   deques with no migrations. *)
let golden_stealing_crash ~keep_running_in_queue () =
  let config =
    { (Testkit.fault_config ~scheduler:Config.Sched_stealing ()) with
      Config.keep_running_in_queue }
  in
  let vm = Vm.create config in
  (* index 187 lands on a scheduling check of vp 0 in both runs *)
  Vm.set_fault_injector vm (Some (Fault.replay (Testkit.crash_plan 187)));
  ignore (Workloads.spawn_busy vm 2);
  ignore
    (Vm.eval vm
       "| sem | sem := Semaphore new. 6 timesRepeat: [[20 timesRepeat: \
        [30 factorial printString. Processor yield]. sem signal] fork]. \
        6 timesRepeat: [sem wait]. 42");
  let s = vm.Vm.shared.State.sched in
  engine_signature vm
    ~extra:(Printf.sprintf
              " crashes=%d failovers=%d local=%d steals=%d failed=%d \
               migrations=%d"
              vm.Vm.crashes_delivered (Scheduler.failovers s)
              (Scheduler.local_picks s) (Scheduler.steals s)
              (Scheduler.failed_steals s) (Scheduler.migrations s))

let golden_serve () =
  let config =
    { (Config.testing ~processors:4 ()) with
      Config.engine = Config.Engine_calendar }
  in
  let p =
    { Server.default_params with
      Server.sessions = 3; workers = 2; requests = 2; think_ms = 10 }
  in
  let vm, _ = Server.run config p in
  engine_signature vm ~extra:(Printf.sprintf " parks=%d" vm.Vm.parks)

let golden_fixtures =
  [ ("BS baseline", (fun () -> engine_signature (golden_bs ())),
     "cycles=589654 steps=115589 events=115593 pauses=189");
    ("MS, 5 VPs, busy", (fun () -> engine_signature (golden_ms_busy ())),
     ("cycles=599475 steps=115589,218180,218114,218061,218026 events=988100 "
      ^ "pauses=1220,1025,1111,1212,497,524,451,572,568,724,537,508,428,568,"
      ^ "690,568,621,492,497,566,493,458,541,459,494,455,530,592,679,595,466,"
      ^ "494,576,689,764,585,539,458,620,736,590,566,563,563,642,451,532,415,"
      ^ "564,371,529,459,424,449,424,459,564,328,459,498,599,603"));
    ("MS, 5 VPs, idle", (fun () -> engine_signature (golden_ms_idle ())),
     ("cycles=509879 steps=115589,251564,251558,251540,251534 "
      ^ "events=1121793 pauses=654"));
    ("MS, 5 VPs, busy, cycle limit", golden_cycle_limit,
     ("cycles=200005 steps=36898,72410,72392,72336,72343 events=326425 "
      ^ "pauses=1220,1025,1111,1212,497,524,451,572,568,724,537,508,428,568,"
      ^ "690,568,621,492,497,566 outcome=cycle-limit "
      ^ "clocks=200003,200001,200002,200005,200001"));
    ("MS, Delay timers", (fun () -> engine_signature (golden_ms_delay ())),
     "cycles=158191 steps=32540,63540,171 events=99304 pauses=453,422,453,453");
    ("stealing", (fun () -> engine_signature (golden_stealing ())),
     ("cycles=550038 steps=115589,215821,215754 events=547228 "
      ^ "pauses=734,709,685,658,343,343,347,278,278,248,287,314,388,423,471,"
      ^ "391,327,317,431,462,362,326,312,351,312,212,356,387,426,388"));
    ("major collector", golden_major,
     ("cycles=206670 steps=48026,46716 events=94828 "
      ^ "pauses=1162,1098,1081,1063,1081,1063,1081,1063,1081,1098,1100,1098,"
      ^ "1081,1084,993,1098,1098,1100,1063,1081,1063,1081,1081,1081,1098,1100,"
      ^ "1098,1081,1063 slices=25 cycles=0"));
    ("major collector, forced completions",
     golden_major_forced ~processors:2 ~busy:1 ~old_words:80_000,
     ("cycles=1105154 steps=60146,57594 events=117846 "
      ^ "pauses=1142,1026,964,992,960,992,1022,1029,973,1026,964,992,956,1026,"
      ^ "964,992,1026,964,992,974,1026,990,1026,990,1026,999,1028,1044,1022,"
      ^ "968,944,964 forced_allocs=8 slices=39 cycles=9"));
    ("major collector, forced completions, 1 VP",
     golden_major_forced ~processors:1 ~busy:0 ~old_words:72_000,
     ("cycles=1430103 steps=60146 events=60221 "
      ^ "pauses=1389,1174,1174,1174,1174,1174,1174,1174,1174,1174,1174,1174,"
      ^ "1174,1174 forced_allocs=13 slices=45 cycles=14"));
    ("E18 churn, major-slice costs", golden_e18_slices,
     "cycles=10414571 slices=52 costs=4704bda52d6f9ecf235e9985b0eb1d3a");
    ("explorer seed", golden_explorer,
     ("cycles=187127 steps=4231,4220,4226,4547,4188 events=21420 "
      ^ "pauses=29660 queries=2678"));
    ("injected VP crash", golden_crash,
     ("cycles=97784 steps=18149,500,36913,36854 events=92431 "
      ^ "pauses=1093,1019,1089,1015,294 crashes=1"));
    ("stealing, injected VP crash",
     golden_stealing_crash ~keep_running_in_queue:true,
     ("cycles=54900 steps=500,19032,19051,18948 events=57546 pauses=2636,3328 "
      ^ "crashes=1 failovers=1 local=128 steals=10 failed=0 migrations=10"));
    ("stealing, BS queue, injected VP crash",
     golden_stealing_crash ~keep_running_in_queue:false,
     ("cycles=52210 steps=500,18904,18934,18684 events=57037 pauses=1547,1593 "
      ^ "crashes=1 failovers=1 local=126 steals=10 failed=0 migrations=0"));
    ("calendar serve", golden_serve,
     ("cycles=125797 steps=30303,30882,61,0 events=61279 pauses=1355 "
      ^ "parks=16")) ]

let golden_tests =
  List.map
    (fun (name, run, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) name expected (run ())))
    golden_fixtures

(* The engine's allocation, gated exactly: OCaml minor words per
   bytecode over one [Vm.eval] of a fixed doIt, compile included, with a
   ceiling per doIt and configuration at the measured value rounded up
   to the next 0.1.  On 5 VPs with the scan engine four processors poll
   while one runs, so an allocation added to the idle poll, the failed
   pick or the engine's fast path shows here (the poll once allocated
   about 95 words, 7.25 words per bytecode).  The send-heavy doIts gate
   the send, return and allocation paths: the method-cache probe, the
   free-context list and the allocation lock (with closure brackets, an
   option per send and closures per activation and per arithmetic
   primitive, the Point loop read 4.7 to 5.8 words per bytecode, the
   printString loop 3.0 to 3.1 and the arithmetic loop 1.41; they now
   read 0.002, 0.43 and 0.000).  The figures are those of
   the default (release) build profile. *)
let alloc_doits =
  [ ("\\\\ loop",
     "| s | s := 0. 1 to: 300000 do: [:i | s := s + (i \\\\ 7)]. s",
     "899998", 0.1);
    ("Point loop",
     "| p | 1 to: 100000 do: [:i | p := Point x: i y: i]. p x",
     "100000", 0.1);
    ("printString loop",
     "| s | 1 to: 20000 do: [:i | s := i printString]. s size", "5", 0.1);
    ("String size/at:put: loop",
     "| t n | t := String new: 3. n := 0.\n\
      1 to: 20000 do: [:i | t at: i \\\\ 3 + 1 put: $a. n := n + t size]. n",
     "60000", 0.1) ]

let minor_words_per_bytecode config ~source ~value =
  let vm = Vm.create config in
  let bytecodes () =
    Array.fold_left (fun n st -> n + st.State.steps) 0 vm.Vm.states
  in
  let b0 = bytecodes () in
  let w0 = Gc.minor_words () in
  let v = Vm.eval vm source in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check string) "the doIt's value" value (Vm.describe vm v);
  words /. float_of_int (bytecodes () - b0)

let alloc_configs =
  let ms5 = Config.ms ~processors:5 () in
  [ ("BS", Config.baseline_bs ());
    ("MS, 1 VP", Config.ms ~processors:1 ());
    ("MS, 5 VPs, scan", ms5);
    ("MS, 5 VPs, calendar",
     { ms5 with Config.engine = Config.Engine_calendar }) ]

let alloc_tests =
  List.concat_map
    (fun (doit, source, value, ceiling) ->
      List.map
        (fun (name, config) ->
          let name = Printf.sprintf "%s, %s" doit name in
          Alcotest.test_case name `Quick (fun () ->
              let per = minor_words_per_bytecode config ~source ~value in
              if per > ceiling then
                Alcotest.failf "%s: %.3f minor words per bytecode, ceiling %.1f"
                  name per ceiling))
        alloc_configs)
    alloc_doits

(* The interpreters keep the active context's pc and stackp in
   registers and write them back only at the flush points: a scavenge
   (whose scan stops at each context's stackp) must start from current
   slots, and so must everything that reads the heap after a run.  Check
   every interpreter at each scavenge of a 5-VP busy run, as the
   collector starts, and again once the run stops at a cycle limit. *)
let test_register_flushes () =
  let vm = Vm.create (Config.testing ~processors:5 ()) in
  ignore (Workloads.spawn_busy vm 4);
  let proc = Vm.spawn vm golden_alloc_source in
  let h = vm.Vm.heap in
  let stale () =
    Array.fold_left
      (fun n st ->
        let ctx = !(st.State.active_ctx) in
        if Oop.equal ctx Oop.sentinel
           || (Oop.small_val (Heap.get h ctx Layout.Ctx.pc) = st.State.r_pc
               && Oop.small_val (Heap.get h ctx Layout.Ctx.stackp)
                  = st.State.r_sp)
        then n
        else n + 1)
      0 vm.Vm.states
  in
  let scavenges = ref 0 and stale_at_scavenge = ref 0 in
  Heap.on_scavenge h (fun () ->
      incr scavenges;
      stale_at_scavenge := !stale_at_scavenge + stale ());
  let outcome = Vm.run ~max_cycles:200_000 ~watch:proc vm in
  check_bool "stopped at the cycle limit" true (outcome = Vm.Cycle_limit);
  check_bool "scavenges ran" true (!scavenges > 0);
  Alcotest.(check int) "stale interpreters at scavenges" 0 !stale_at_scavenge;
  Alcotest.(check int) "stale interpreters after the run" 0 (stale ())

let test_sorting () =
  check_eval "sort integers" "'Array (1 2 5 9 )'"
    "#(5 2 9 1) asSortedArray printString";
  check_eval "sort with a custom block" "'Array (9 5 2 1 )'"
    "(#(5 2 9 1) asSortedArray: [:a :b | a > b]) printString";
  check_eval "sort strings" "'Array ('ant' 'bee' 'cat' )'"
    "#('cat' 'ant' 'bee') asSortedArray printString";
  check_eval "sort is stable for equal keys" "4"
    "(#(3 1 3 1) asSortedArray: [:a :b | a < b]) size";
  check_eval "empty sort" "0" "(Array new: 0) asSortedArray size";
  check_eval "sorted OrderedCollection" "'Array (1 2 3 )'"
    "| c | c := OrderedCollection new. c add: 3; add: 1; add: 2. c asSortedArray printString"

let test_aggregates () =
  check_eval "max" "9" "#(5 2 9 1) max";
  check_eval "min" "1" "#(5 2 9 1) min";
  check_eval "sum" "17" "#(5 2 9 1) sum"

let test_message_class () =
  check_eval "message arguments preserved" "'(7)'"
    {st|
Mirror compile: 'doesNotUnderstand: m
    ^''('' , (m arguments at: 1) printString , '')''
' into: EchoArgs classSide: false.
EchoArgs new someUnknown: 7
|st}



(* --- property: random integer expressions agree with a reference model --- *)

(* Random arithmetic/comparison ASTs are printed as Smalltalk source with
   full parenthesisation, evaluated on the VM, and compared against an
   OCaml evaluation of the same tree.  This exercises the lexer, parser,
   code generator, the special-selector fast path and the primitive
   fallbacks together. *)

type iexpr =
  | Const of int
  | Bin of string * iexpr * iexpr
  | Una of string * iexpr

let rec gen_iexpr rng depth =
  if depth = 0 || Random.State.int rng 4 = 0 then
    Const (Random.State.int rng 2001 - 1000)
  else
    match Random.State.int rng 8 with
    | 0 -> Bin ("+", gen_iexpr rng (depth - 1), gen_iexpr rng (depth - 1))
    | 1 -> Bin ("-", gen_iexpr rng (depth - 1), gen_iexpr rng (depth - 1))
    | 2 -> Bin ("*", gen_iexpr rng (depth - 1), gen_iexpr rng (depth - 1))
    | 3 -> Bin ("//", gen_iexpr rng (depth - 1), gen_iexpr rng (depth - 1))
    | 4 -> Bin ("\\\\", gen_iexpr rng (depth - 1), gen_iexpr rng (depth - 1))
    | 5 -> Bin ("max:", gen_iexpr rng (depth - 1), gen_iexpr rng (depth - 1))
    | 6 -> Una ("abs", gen_iexpr rng (depth - 1))
    | _ -> Una ("negated", gen_iexpr rng (depth - 1))

let rec st_source = function
  | Const n -> string_of_int n
  | Bin (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (st_source a)
        (if op = "\\\\" then "\\\\" else op)
        (st_source b)
  | Una (op, a) -> Printf.sprintf "(%s %s)" (st_source a) op

let floor_div a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let floor_mod a b =
  let r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then r + b else r

exception Division_by_zero_model

let rec model = function
  | Const n -> n
  | Bin (op, a, b) ->
      let x = model a and y = model b in
      (match op with
       | "+" -> x + y
       | "-" -> x - y
       | "*" -> x * y
       | "//" -> if y = 0 then raise Division_by_zero_model else floor_div x y
       | "max:" -> max x y
       | _ -> if y = 0 then raise Division_by_zero_model else floor_mod x y)
  | Una (op, a) ->
      let x = model a in
      (match op with "abs" -> abs x | _ -> -x)

let arithmetic_agreement_prop =
  QCheck.Test.make ~name:"random integer expressions match the OCaml model"
    ~count:120
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 5))
    (fun (seed, depth) ->
      let rng = Random.State.make [| seed |] in
      let e = gen_iexpr rng depth in
      match model e with
      | expected ->
          Vm.eval_to_string (Lazy.force vm) (st_source e)
          = string_of_int expected
      | exception Division_by_zero_model ->
          (try
             ignore (Vm.eval_to_string (Lazy.force vm) (st_source e));
             false
           with State.Vm_error _ -> true))

let bitops_agreement_prop =
  QCheck.Test.make ~name:"bit operations match the OCaml model" ~count:120
    QCheck.(triple (int_range (-100000) 100000) (int_range (-100000) 100000)
              (int_range 0 3))
    (fun (a, b, k) ->
      let src, expected =
        match k with
        | 0 -> (Printf.sprintf "(%d) bitAnd: (%d)" a b, a land b)
        | 1 -> (Printf.sprintf "(%d) bitOr: (%d)" a b, a lor b)
        | 2 -> (Printf.sprintf "(%d) bitXor: (%d)" a b, a lxor b)
        | _ ->
            let sh = abs b mod 20 in
            (Printf.sprintf "(%d) bitShift: %d" a sh, a lsl sh)
      in
      Vm.eval_to_string (Lazy.force vm) src = string_of_int expected)

let () =
  (* the Message test needs its class defined first *)
  Vm.load_classes (Lazy.force vm) "CLASS EchoArgs SUPER Object\n";
  Alcotest.run "extensions"
    [ ("perform",
       [ Alcotest.test_case "perform variants" `Quick test_perform ]);
      ("doesNotUnderstand",
       [ Alcotest.test_case "default" `Quick test_dnu_default;
         Alcotest.test_case "proxy override" `Quick test_dnu_override;
         Alcotest.test_case "message object" `Quick test_message_class ]);
      ("delay",
       [ Alcotest.test_case "virtual time" `Quick test_delay;
         Alcotest.test_case "multiprocessor" `Quick test_delay_multiprocessor;
         Alcotest.test_case "late in run" `Quick test_delay_late_in_run ]);
      ("timer order", List.map QCheck_alcotest.to_alcotest timer_order_props);
      ("calendar engine",
       [ Alcotest.test_case "all parked, one timer" `Quick
           test_calendar_all_parked_timer;
         Alcotest.test_case "real deadlock still detected" `Quick
           test_calendar_deadlock_detected ]);
      ("engine golden", golden_tests);
      ("engine allocation", alloc_tests);
      ("registers",
       [ Alcotest.test_case "flushed at scavenges and at run end" `Quick
           test_register_flushes ]);
      ("sorting",
       [ Alcotest.test_case "sorts" `Quick test_sorting;
         Alcotest.test_case "aggregates" `Quick test_aggregates ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest arithmetic_agreement_prop;
         QCheck_alcotest.to_alcotest bitops_agreement_prop ]) ]
