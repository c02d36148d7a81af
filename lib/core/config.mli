(** Configuration of the multiprocessor adaptation strategies.

    Each shared resource the paper identifies carries its strategy here,
    so a VM can be assembled as baseline Berkeley Smalltalk, as the
    published Multiprocessor Smalltalk (Table 3's strategy assignment), or
    as any of the ablation variants the paper discusses. *)

type cache_strategy =
  | Cache_replicated  (** one method cache per processor (published MS) *)
  | Cache_shared_locked
      (** one cache behind a two-level lock — the configuration the paper
          found "much too slow" *)

type context_strategy =
  | Ctx_replicated  (** per-processor free-context lists (published MS) *)
  | Ctx_shared_locked  (** one locked list — the paper's 160 % bottleneck *)
  | Ctx_disabled  (** no recycling: every context allocated fresh *)

type alloc_strategy =
  | Alloc_serialized  (** eden bump pointer under one lock (published MS) *)
  | Alloc_replicated_eden
      (** per-processor eden regions — the improvement the paper proposes
          in section 4 *)

type scheduler_strategy =
  | Sched_locked  (** one ready queue behind the scheduler lock (MS) *)
  | Sched_stealing
      (** per-processor ready deques with work stealing (E16) *)

type engine_strategy =
  | Engine_scan
      (** an idle processor polls: it is re-stepped every 10 Delay
          quanta *)
  | Engine_calendar
      (** an idle processor parks off the pending-heap until a wakeup
          event (ready work, input, timer) — E17 *)

type t = {
  processors : int;
  locks_enabled : bool;  (** [false]: baseline BS, no synchronization *)
  method_cache : cache_strategy;
  free_contexts : context_strategy;
  allocation : alloc_strategy;
  scheduler : scheduler_strategy;
      (** E16: the serialized ready queue, or per-processor deques with
          work stealing *)
  engine : engine_strategy;
      (** E17: what idle processors do in the one engine loop — poll or
          park; selection, timers and batching are shared *)
  keep_running_in_queue : bool;
      (** the MS reorganization: running Processes stay in the ready
          queue; [false] restores BS semantics *)
  old_words : int;
  eden_words : int;  (** the paper's [s]: 80 KB by default *)
  survivor_words : int;
  tenure_age : int;  (** scavenges survived before promotion *)
  scavenge_workers : int;
      (** processors applied to the scavenge (1 = published MS; more is
          the paper's section-3.1 suggestion) *)
  cost : Cost_model.t;
  sanitize : Sanitizer.mode;
      (** serialization checking: [Off] for production runs, [Report]
          accumulates into the instrumentation report, [Strict] raises on
          the first violation *)
  debug_skip_ctx_lock : bool;
      (** fault injection for the schedule explorer's self-check: shared
          free-context take/give skip their lock bracket, so the
          sanitizer sees unguarded mutations.  Never set in a legitimate
          configuration. *)
  debug_unlocked_steal : bool;
      (** the same self-check idea for E16: deque operations skip their
          lock brackets, so the sanitizer sees unguarded steal-path
          mutations.  Never set in a legitimate configuration. *)
  watchdog_quanta : int;
      (** spin watchdog, in Delay quanta: a contended acquire that would
          wait longer raises {!Fault.Deadlock_suspected} instead of
          spinning forever; 0 (the default) disables it and keeps the
          lock timelines bit-identical to the seed *)
  backoff_quanta : int;
      (** fixed-interval retries before the spin interval starts
          doubling (exponential backoff); 0 keeps the fixed spin *)
  major_enabled : bool;
      (** E18: run the incremental old-space mark-sweep collector in
          bounded slices at step boundaries; [Image_full] becomes a last
          resort after a forced cycle completion *)
  major_budget : int;
      (** target cycles of collector work per slice *)
  debug_skip_major_barrier : bool;
      (** self-check for the schedule explorer: replace the write
          barrier with a probe that reports (instead of shading) every
          old-pointer store made while marking is in flight.  Never set
          in a legitimate configuration. *)
}

val default_eden_words : int

(** Baseline Berkeley Smalltalk: one interpreter, no multiprocessor
    support at all. *)
val baseline_bs : ?cost:Cost_model.t -> unit -> t

(** Multiprocessor Smalltalk as published: serialization for allocation,
    GC, entry tables, scheduling and I/O; replication for interpreters,
    method caches and free contexts; the scheduler reorganization. *)
val ms : ?processors:int -> ?cost:Cost_model.t -> unit -> t

(** A small-heap, uniform-cost configuration for unit tests;
    single-processor gives baseline BS semantics, more gives MS. *)
val testing : ?processors:int -> unit -> t
