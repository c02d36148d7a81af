(** Sparse perturbation plans and the query stream that produces them:
    the machinery schedule exploration ({!Explore}) and fault injection
    ({!Fault}) share.

    A plan lists the few queries of a deterministic run that were
    perturbed, each tagged with the index of its query (the n-th query
    of the run).  A {!stream} answers a run's queries, either sampling
    from a seed or replaying a plan, and records the steps its client
    applied, so a seeded run yields the plan that replays it bit for
    bit.  Shrinking drops steps and shrinks the values of the survivors,
    which keeps the indices of the remaining steps meaningful.  Each
    client supplies only its action type, its sampling parameters and
    the few functions below that know its variants. *)

type 'a step = { index : int; action : 'a }

(** Strictly ascending by [index]; the empty plan is the unperturbed
    run. *)
type 'a t = 'a step list

(** The splitmix64-style PRNG seeded streams sample from, and the
    command-log generator too: seeded runs must reproduce forever, so
    the stream must not depend on [Stdlib.Random]. *)
module Rng : sig
  type t

  val make : int -> t

  (** [below r n] is uniform in [\[0, n)]; 0 when [n <= 1]. *)
  val below : t -> int -> int

  (** [chance r permil] is true with probability [permil]/1000. *)
  val chance : t -> int -> bool
end

(** {1 Query streams} *)

(** The queries of one run, numbered from 0 in the order they are
    asked, answered from a seed (with the client's sampling parameters
    ['p]) or from a plan of actions ['a].  A stream owns all its state,
    so independent runs never share one. *)
type ('a, 'p) stream

val seeded : seed:int -> 'p -> ('a, 'p) stream

val replaying : 'a t -> ('a, 'p) stream

(** [query s ~accept ~gen] answers the next query.  A seeded stream
    returns [gen rng params] ([None] leaves the default).  A replaying
    stream returns the action its plan records at this query's index
    when [accept] takes it, and [None] otherwise: steps at indices the
    run skipped past, and actions of the wrong variant for the query,
    are dropped, so a plan from another context degrades to the default
    rather than derailing the run.  Either way the answer is only a
    candidate; see {!applied}. *)
val query :
  ('a, 'p) stream -> accept:('a -> bool) -> gen:(Rng.t -> 'p -> 'a option) ->
  'a option

(** Record that the caller applied [action] at the last query.  Only
    applied actions enter the plan, so a replay re-applies exactly what
    the recorded run committed. *)
val applied : ('a, 'p) stream -> 'a -> unit

(** The applied steps, index-ascending: the plan that replays this
    run. *)
val recorded : ('a, 'p) stream -> 'a t

(** The number of applied steps. *)
val applied_count : ('a, 'p) stream -> int

(** The number of queries answered. *)
val queries : ('a, 'p) stream -> int

(** {1 Utilities} *)

(** An FNV-style content hash of a plan; [code] maps an action to an
    integer that tells its variant and value apart. *)
val fingerprint : code:('a -> int) -> 'a t -> int

(** [shrink ~smaller ~run plan] delta-debugs a failing plan: drop chunks
    of steps, halving the chunk size down to single steps and restarting
    on every drop that still fails, then replace surviving actions by
    [smaller] ones while the run still fails.  [run] must rebuild the
    world, replay the candidate and return [true] when the failure
    reproduces; [plan] itself is assumed to fail.  Returns the shrunk
    plan and the number of replays spent, at most [budget] (default
    200). *)
val shrink :
  smaller:('a -> 'a option) -> run:('a t -> bool) -> ?budget:int -> 'a t ->
  'a t * int

(** {1 Plan files}

    A two-line [#] header, then one step per line: a token naming the
    action, the index, and the action's non-negative integer arguments,
    separated by single spaces.  Blank lines and [#] comments are
    ignored. *)

type 'a format = {
  header : string;  (** the first line, after ["# "] *)
  noun : string;  (** what one step is, singular: ["decision"] *)
  index_is : string;  (** what the index counts *)
  encode : 'a -> string * int list;  (** token and arguments *)
  decode : string -> int list -> 'a option;  (** [None]: malformed *)
}

val pp : 'a format -> Format.formatter -> 'a t -> unit
val save : 'a format -> string -> 'a t -> unit

(** Raises [Failure "PATH:LINE: ..."] on a malformed line or on an index
    that appears twice (a replay would silently skip the second step). *)
val load : 'a format -> string -> 'a t

(** {!load} for replay: additionally raises [Failure] when the file holds
    no steps at all, since an empty plan would silently run
    unperturbed. *)
val load_replay : 'a format -> string -> 'a t
