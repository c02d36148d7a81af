(* The V System spin-lock, as a deterministic contention model.

   The real lock is an interlocked test-and-set; when the test fails the
   locking code invokes the kernel's [Delay] operation with a minimal
   timeout and retries (paper, section 3.1).  Because the engine steps
   processors in nondecreasing virtual-time order, and because every
   critical section in MS is short enough to complete within one
   interpreter step, a lock reduces to a timeline: [free_at] is the moment
   the current holder releases.  An acquire at time [now]:

   - succeeds immediately if [now >= free_at], costing one test-and-set;
   - otherwise retries every [delay_quantum] cycles until the lock is free,
     so the operation starts at the first retry instant at or after
     [free_at].

   A disabled lock (baseline Berkeley Smalltalk, which is single-threaded)
   charges no synchronization: the code path still does the operation's
   work, but pays no test-and-set and never spins. *)

type t = {
  name : string;
  enabled : bool;
  delay_quantum : int;
  acquire_cost : int;
  mutable free_at : int;
  mutable san : Sanitizer.t option;
  mutable san_id : Sanitizer.id;  (* this lock's id in [san] *)
  mutable machine : Machine.t option;
  (* Report the op windows of a *disabled* lock to the sanitizer.  Off by
     default: legitimately lock-free configurations (baseline BS on one
     processor, per-processor eden allocation) issue overlapping windows
     on purpose.  The engine turns it on for configurations that disabled
     locking while keeping several processors — exactly the broken setup
     the sanitizer should expose as unserialized timelines. *)
  mutable report_unlocked : bool;
  (* holder bookkeeping, for the watchdog's deadlock report *)
  mutable holder : int;           (* vp of the most recent acquirer, -1 early *)
  mutable held_since : int;       (* when that acquire started *)
  (* the spin watchdog: a contended acquire that would wait more than
     [watchdog_bound] cycles raises {!Fault.Deadlock_suspected} instead
     of spinning forever; 0 disables (the default, and the paper's
     behaviour).  [backoff_after] retries at [delay_quantum] before the
     retry interval starts doubling; 0 keeps the fixed-interval spin. *)
  mutable watchdog_bound : int;
  mutable backoff_after : int;
  (* injected-fault bookkeeping: [fault_base] is the release time the
     current hold would have had without the injected delay, [fault_until]
     the extended release ([-1] when no fault is outstanding), so waiter
     spin can be attributed to the fault rather than to contention *)
  mutable fault_base : int;
  mutable fault_until : int;
  mutable last_fault_delay : int; (* holder's own injected delay, for
                                     [locked_op_on]'s spin attribution *)
  (* statistics *)
  mutable acquisitions : int;
  mutable contended : int;
  mutable spin_cycles : int;        (* contention spin only *)
  mutable fault_spin_cycles : int;  (* waiter spin caused by injected faults *)
  mutable backoff_cycles : int;     (* extra wait from exponential backoff *)
  mutable fault_stall_cycles : int; (* injected holder-stall cycles *)
}

let make ~enabled ~cost name =
  { name;
    enabled;
    delay_quantum = cost.Cost_model.delay_quantum;
    acquire_cost = cost.Cost_model.lock_acquire;
    free_at = 0;
    san = None;
    san_id = -1;
    machine = None;
    report_unlocked = false;
    holder = -1;
    held_since = 0;
    watchdog_bound = 0;
    backoff_after = 0;
    fault_base = 0;
    fault_until = -1;
    last_fault_delay = 0;
    acquisitions = 0;
    contended = 0;
    spin_cycles = 0;
    fault_spin_cycles = 0;
    backoff_cycles = 0;
    fault_stall_cycles = 0 }

let name t = t.name
let enabled t = t.enabled
let acquisitions t = t.acquisitions
let contended t = t.contended
let spin_cycles t = t.spin_cycles
let fault_spin_cycles t = t.fault_spin_cycles
let backoff_cycles t = t.backoff_cycles
let fault_stall_cycles t = t.fault_stall_cycles
let holder t = t.holder

let set_watchdog t ~bound ~backoff_after =
  t.watchdog_bound <- Int.max 0 bound;
  t.backoff_after <- Int.max 0 backoff_after

let injector t =
  match t.machine with None -> None | Some m -> Machine.injector m

let attach t san =
  t.san <- Some san;
  t.san_id <- Sanitizer.id san t.name

let sanitizer t = t.san
let sanitizer_id t = t.san_id

let attach_machine t m = t.machine <- Some m

let set_report_unlocked t flag = t.report_unlocked <- flag

(* The policy's lock-acquisition preemption point: stall the acquiring
   processor by the requested jitter before it reaches for the lock.
   Contended acquires round their start up to the holder's release, so
   jitter can never rewind a lock's timeline — it only changes who gets
   there first.  Engine-side callers (vp = -1) are never perturbed: they
   are simulation bookkeeping, not processor decisions. *)
let jittered t ~vp ~now =
  match t.machine with
  | Some m when vp >= 0 ->
      (match Machine.policy m with
       | Some p ->
           now + Int.max 0 (p.Machine.lock_jitter ~vp ~lock:t.name ~now)
       | None -> now)
  | _ -> now

(* The policy's post-section preemption point: after a charged critical
   section the policy may ask the processor to reschedule at its next
   check.  The request is parked on the machine; the engine drains it
   because this module cannot see the scheduler. *)
let maybe_preempt t ~vp ~now =
  match t.machine with
  | Some m when vp >= 0 ->
      (match Machine.policy m with
       | Some p ->
           if p.Machine.preempt_after ~vp ~lock:t.name ~now then
             Machine.flag_preempt m vp
       | None -> ())
  | _ -> ()

(* A disabled lock charges nothing, but when [report_unlocked] is on the
   op's window still reaches the sanitizer, so concurrent windows from
   different processors surface as unserialized timelines. *)
let unlocked_op t ~vp ~now ~op_cycles =
  let now = jittered t ~vp ~now in
  (match t.san with
   | Some san when t.report_unlocked && vp >= 0 ->
       Sanitizer.on_lock_op san ~lock:t.san_id ~vp ~now ~start:now
         ~finish:(now + op_cycles) ~contended:false
   | _ -> ());
  now + op_cycles

(* A stats reset must not touch [free_at]: the lock's virtual timeline is
   simulation state, not a statistic, and rewinding it would let a later
   acquire start before an earlier critical section finished. *)
let reset_stats t =
  t.acquisitions <- 0;
  t.contended <- 0;
  t.spin_cycles <- 0;
  t.fault_spin_cycles <- 0;
  t.backoff_cycles <- 0;
  t.fault_stall_cycles <- 0

(* Acquire at [now]: returns [(start, contended)] and advances [free_at] to
   [start + acquire_cost + op_cycles].  Shared by [locked_op] and
   [critical].

   A contended acquire first consults the watchdog: a wait beyond
   [watchdog_bound] means the holder is plausibly dead (an injected
   holder crash parks [free_at] at {!Fault.never}), and the acquire
   raises a structured {!Fault.Deadlock_suspected} naming the holder
   instead of spinning forever.  Then the spin is split three ways for
   the statistics: cycles the waiter would have spun against the
   *unfaulted* release are contention ([spin_cycles]); cycles spent
   against an injected extension of the hold are fault spin
   ([fault_spin_cycles]); and any extra delay from coarsened retry
   probes under exponential backoff is [backoff_cycles].  With no fault
   outstanding and no backoff configured the arithmetic reduces exactly
   to the original fixed-interval spin. *)
let acquire t ~vp ~now ~op_cycles =
  t.acquisitions <- t.acquisitions + 1;
  let start, was_contended =
    if now >= t.free_at then (now, false)
    else begin
      t.contended <- t.contended + 1;
      let wait = t.free_at - now in
      if t.watchdog_bound > 0 && wait > t.watchdog_bound then begin
        (match t.san with
         | Some san ->
             Sanitizer.fault_event san ~vp ~now ~resource:t.name
               (Printf.sprintf "watchdog: waited %d > bound %d, holder vp %d"
                  wait t.watchdog_bound t.holder)
         | None -> ());
        raise
          (Fault.Deadlock_suspected
             { Fault.lock = t.name; holder = t.holder; waiter = vp;
               clock = now; held_since = t.held_since; waited = wait })
      end;
      let q = t.delay_quantum in
      let retries = (wait + q - 1) / q in
      let natural_spun = retries * q in
      let spun =
        if t.backoff_after > 0 && retries > t.backoff_after then begin
          (* fixed-interval probes up to the threshold, then doubling;
             every probe instant stays a multiple of [q] past [now], so
             the start never precedes the fixed-interval start *)
          let elapsed = ref (t.backoff_after * q) in
          let interval = ref (2 * q) in
          while now + !elapsed < t.free_at do
            elapsed := !elapsed + !interval;
            interval := !interval * 2
          done;
          !elapsed
        end
        else natural_spun
      in
      let fault_part =
        if t.fault_until >= t.free_at then
          Int.max 0 (Int.min wait (t.free_at - Int.max now t.fault_base))
        else 0
      in
      t.spin_cycles <- t.spin_cycles + (natural_spun - fault_part);
      t.fault_spin_cycles <- t.fault_spin_cycles + fault_part;
      t.backoff_cycles <- t.backoff_cycles + (spun - natural_spun);
      (now + spun, true)
    end
  in
  let finish = start + t.acquire_cost + op_cycles in
  t.free_at <- finish;
  t.holder <- vp;
  t.held_since <- start;
  (start, finish, was_contended)

(* The holder-fault injection point: having just acquired the lock, the
   holder may be struck by an injected stall (it keeps the lock
   [n] extra cycles, delaying itself and every waiter) or an injected
   crash (it dies inside the section: the lock's release is parked at
   {!Fault.never} and the machine is flagged to reap the processor at
   the end of its current step — the section's work itself completes,
   so injected crashes never leave half-mutated shared state; what they
   leave is an unreleased lock, which is exactly what the watchdog must
   catch).  Returns the holder's possibly-extended completion time. *)
let inject_holder_fault t ~vp ~finish =
  match t.machine with
  | Some m when vp >= 0 && not (Machine.crash_pending m vp) -> (
      match Machine.injector m with
      | None -> finish
      | Some inj -> (
          match Fault.at inj Fault.Lock_acquire with
          | None -> finish
          | Some (Fault.Holder_stall n) ->
              Fault.applied inj ~vp ~now:finish ~resource:t.name
                (Fault.Holder_stall n);
              (match t.san with
               | Some san ->
                   Sanitizer.fault_event san ~vp ~now:finish ~resource:t.name
                     (Printf.sprintf "holder stall %d" n)
               | None -> ());
              t.fault_base <- t.free_at;
              t.free_at <- t.free_at + n;
              t.fault_until <- t.free_at;
              t.fault_stall_cycles <- t.fault_stall_cycles + n;
              t.last_fault_delay <- n;
              let mvp = Machine.vp m vp in
              mvp.Machine.fault_cycles <- mvp.Machine.fault_cycles + n;
              finish + n
          | Some Fault.Holder_crash ->
              Fault.applied inj ~vp ~now:finish ~resource:t.name
                Fault.Holder_crash;
              (match t.san with
               | Some san ->
                   Sanitizer.fault_event san ~vp ~now:finish ~resource:t.name
                     "holder crash: lock never released"
               | None -> ());
              t.fault_base <- t.free_at;
              t.free_at <- Fault.never;
              t.fault_until <- t.free_at;
              Machine.flag_crash m vp;
              finish
          | Some _ -> finish))
  | _ -> finish

(* Perform a critical section of [op_cycles] starting no earlier than [now].
   Returns the completion time. *)
let locked_op ?(vp = -1) t ~now ~op_cycles =
  if not t.enabled then unlocked_op t ~vp ~now ~op_cycles
  else begin
    let now = jittered t ~vp ~now in
    let start, finish, was_contended = acquire t ~vp ~now ~op_cycles in
    let finish = inject_holder_fault t ~vp ~finish in
    (match t.san with
     | Some san ->
         Sanitizer.on_lock_op san ~lock:t.san_id ~vp ~now ~start ~finish
           ~contended:was_contended
     | None -> ());
    maybe_preempt t ~vp ~now:finish;
    finish
  end

(* A bracketed critical section: acquire, run [f] inside the section (so
   guarded-resource mutations performed by [f] are seen by the sanitizer as
   covered), release.  Returns the section's completion time and [f]'s
   result.  The bracket is closed even if [f] raises — the timeline has
   already advanced, matching [locked_op] (lock work was charged before the
   failure propagates). *)
let critical ?(vp = -1) t ~now ~op_cycles f =
  if not t.enabled then (unlocked_op t ~vp ~now ~op_cycles, f ())
  else begin
    let now = jittered t ~vp ~now in
    let start, finish, was_contended = acquire t ~vp ~now ~op_cycles in
    let finish = inject_holder_fault t ~vp ~finish in
    let finish_section result =
      maybe_preempt t ~vp ~now:finish;
      (finish, result)
    in
    match t.san with
    | None -> finish_section (f ())
    | Some san ->
        Sanitizer.section_enter san ~lock:t.san_id ~vp ~now ~start ~finish
          ~contended:was_contended;
        let result =
          try f ()
          with e ->
            Sanitizer.section_exit san ~lock:t.san_id ~vp ~now:finish;
            raise e
        in
        Sanitizer.section_exit san ~lock:t.san_id ~vp ~now:finish;
        finish_section result
  end

(* Convenience: run the critical section on a processor, updating its clock
   and spin statistics. *)
let locked_op_on t (vp : Machine.vp) ~op_cycles =
  let now = vp.Machine.clock in
  t.last_fault_delay <- 0;
  let finish = locked_op ~vp:vp.Machine.id t ~now ~op_cycles in
  (* an injected holder stall inside this op is fault loss, not spin *)
  let fault = t.last_fault_delay in
  t.last_fault_delay <- 0;
  let spin =
    finish - now - fault - op_cycles
    - (if t.enabled then t.acquire_cost else 0)
  in
  if spin > 0 then vp.Machine.spin_cycles <- vp.Machine.spin_cycles + spin;
  vp.Machine.clock <- finish
