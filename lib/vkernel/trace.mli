(** A ring-buffer event trace for the simulated kernel.

    Every serialization-relevant event — lock acquisitions, critical
    sections, guarded-resource mutations, invariant violations — can be
    recorded here with its virtual processor, virtual time, kind,
    resource and detail.  The buffer is bounded: once full, new events
    overwrite the oldest, so tracing is safe to leave on for whole
    benchmark runs.

    Recording is O(1) and allocation-free: the ring is parallel int
    arrays, a resource is an interned name id and a detail is a code with
    up to two int arguments, so an event is a few int stores.  Only a
    free-text detail ({!Text}) stores a string.  Rendering happens on
    read: {!last} and {!dump} build {!event} records and their strings.
    The arrays are allocated by the first record, so a ring nothing
    records into costs no memory. *)

type kind =
  | Lock_acquire  (** an uncontended [locked_op] or critical section *)
  | Lock_contend  (** the acquire found the lock held and spun *)
  | Section_enter  (** a bracketed critical section opened *)
  | Section_exit
  | Mutation  (** a guarded resource was mutated (checked) *)
  | Owner_touch  (** a replicated resource was touched by a vp *)
  | Violation  (** a sanitizer invariant failed *)
  | Sched_decision  (** the schedule explorer perturbed a decision *)
  | Fault_event  (** an injected fault or a recovery action *)
  | Steal  (** a work-stealing scheduler took a Process from a victim *)
  | Major  (** an incremental old-space collection event (E18) *)

(** An event's detail, rendered from its two int arguments [a] and [b]
    only when read. *)
type detail =
  | Empty  (** [""] *)
  | Finish  (** ["finish=a"]: a lock section's release time *)
  | Owner  (** ["owner=a"]: a replicated resource's owning vp *)
  | Words  (** ["a words"]: an allocation's size *)
  | Slot  (** ["a[b]"]: field [b] of the object at address [a] *)
  | Address  (** ["a"] *)
  | Text of string  (** free text, for rare events *)

(** A rendered event. *)
type event = {
  vp : int;  (** virtual processor id, or -1 for the engine *)
  time : int;  (** virtual time in cycles, or -1 when unknown *)
  kind : kind;
  resource : string;
  detail : string;
}

type t

(** A ring of [capacity] events (default 4096). *)
val create : ?capacity:int -> unit -> t

val capacity : t -> int

(** Total events ever recorded, including overwritten ones. *)
val recorded : t -> int

(** The id of a resource name, assigned on first use.  Ids are small,
    dense from 0, and survive {!clear}. *)
val intern : t -> string -> int

(** The name an id was interned from. *)
val name : t -> int -> string

(** Record an event against an interned [resource]; [a] and [b] are the
    detail's arguments (ignored where it takes fewer).  [vp] is at least
    -1. *)
val record :
  t -> vp:int -> time:int -> kind:kind -> resource:int -> detail -> int ->
  int -> unit

(** Record a free-text event against a resource name (interned here). *)
val note :
  t -> vp:int -> time:int -> kind:kind -> resource:string -> string -> unit

(** The string a detail renders to. *)
val render : detail -> int -> int -> string

(** The most recent [n] events, oldest first. *)
val last : t -> int -> event list

(** Forget every event (the interned names stay). *)
val clear : t -> unit

val kind_name : kind -> string

val pp_event : Format.formatter -> event -> unit

(** Print the most recent [n] events, one per line. *)
val dump : Format.formatter -> t -> n:int -> unit
