(** Sparse perturbation plans: the machinery schedule exploration
    ({!Explore}) and fault injection ({!Fault}) share.

    A plan lists the few queries of a deterministic run that were
    perturbed, each tagged with the index of its query (the n-th query
    of the run).  Replaying a plan reproduces the run bit for bit;
    shrinking drops steps and shrinks the values of the survivors, which
    keeps the indices of the remaining steps meaningful.  Each client
    supplies only its action type and the few functions below that know
    its variants. *)

type 'a step = { index : int; action : 'a }

(** Strictly ascending by [index]; the empty plan is the unperturbed
    run. *)
type 'a t = 'a step list

(** {1 Replay} *)

(** A replaying position in a plan, sorted by index. *)
type 'a cursor

val cursor : 'a t -> 'a cursor

(** [next c q ~accept] answers query [q] (queries arrive in ascending
    order): the action recorded at index [q] when [accept] takes it,
    [None] otherwise.  Steps at indices the run skipped past, and actions
    of the wrong variant for the query, are dropped, so a plan from
    another context degrades to the default rather than derailing the
    run. *)
val next : 'a cursor -> int -> accept:('a -> bool) -> 'a option

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
