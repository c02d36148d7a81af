(* Sparse perturbation plans and the query stream that samples or
   replays them, shared by schedule exploration ({!Explore}: decision
   traces) and fault injection ({!Fault}: fault plans).

   A plan is sparse on purpose: a run answers thousands of queries but
   perturbs only a sampled few, and shrinking works by *dropping* steps,
   which keeps the indices of the survivors meaningful (index n names
   the n-th query of whatever run the plan is replayed into; queries
   before the first change are unaffected). *)

type 'a step = { index : int; action : 'a }

type 'a t = 'a step list

let sorted plan = List.sort (fun a b -> compare a.index b.index) plan

(* --- the PRNG ---

   A splitmix64-style generator: Stdlib.Random's stream is not
   guaranteed stable across compiler releases, and seeded runs must
   reproduce forever. *)
module Rng = struct
  type t = { mutable state : int }

  let make seed = { state = (seed * 0x9E3779B9) + 0x1F123BB5 }

  (* The 64-bit splitmix constants, truncated to OCaml's boxed-free int
     width; mixing quality is ample for sampling perturbations. *)
  let next r =
    r.state <- r.state + 0x1E3779B97F4A7C15;
    let z = r.state in
    let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
    let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
    (z lxor (z lsr 31)) land max_int

  let below r n = if n <= 1 then 0 else next r mod n
  let chance r permil = below r 1000 < permil
end

(* --- replay --- *)

type 'a cursor = { steps : 'a step array; mutable pos : int }

let cursor plan = { steps = Array.of_list (sorted plan); pos = 0 }

let next c q ~accept =
  let n = Array.length c.steps in
  while c.pos < n && c.steps.(c.pos).index < q do c.pos <- c.pos + 1 done;
  if c.pos < n && c.steps.(c.pos).index = q then begin
    let s = c.steps.(c.pos) in
    c.pos <- c.pos + 1;
    if accept s.action then Some s.action else None
  end
  else None

(* --- the query stream --- *)

type ('a, 'p) source = Seeded of Rng.t * 'p | Replaying of 'a cursor

type ('a, 'p) stream = {
  source : ('a, 'p) source;
  mutable queries : int;
  mutable count : int;
  mutable rev_applied : 'a step list;
}

let stream source = { source; queries = 0; count = 0; rev_applied = [] }

let seeded ~seed params = stream (Seeded (Rng.make seed, params))
let replaying plan = stream (Replaying (cursor plan))

(* Answer one query.  [gen] samples an action from the seed (None = the
   default); replay returns the step recorded at this query's index if
   [accept] takes its variant. *)
let query s ~accept ~gen =
  let q = s.queries in
  s.queries <- q + 1;
  match s.source with
  | Seeded (rng, params) -> gen rng params
  | Replaying c -> next c q ~accept

(* Record an applied action at the index of the query that produced it,
   the last one: [queries - 1].  Recording [queries] itself would shift
   every step one query late on replay, where {!query} matches the
   pre-increment number. *)
let applied s action =
  s.rev_applied <- { index = s.queries - 1; action } :: s.rev_applied;
  s.count <- s.count + 1

let recorded s = List.rev s.rev_applied
let applied_count s = s.count
let queries s = s.queries

(* --- utilities --- *)

let fingerprint ~code plan =
  List.fold_left
    (fun h { index; action } ->
      let h = (h * 0x01000193) lxor index in
      ((h * 0x01000193) lxor code action) land max_int)
    0x811C9DC5 plan

(* Classic delta debugging over the step list: try dropping chunks,
   halving the chunk size until single steps, restarting whenever a drop
   still fails; then shrink the surviving values.  [run] rebuilds the
   world and replays, so every probe costs a full run: the budget caps
   the total. *)
let shrink ~smaller ~run ?(budget = 200) plan =
  let spent = ref 0 in
  let try_run s =
    if !spent >= budget then false
    else begin
      incr spent;
      run s
    end
  in
  let drop_chunks current =
    let current = ref current in
    let chunk = ref (Int.max 1 (List.length !current / 2)) in
    let progress = ref true in
    while !chunk >= 1 && !spent < budget do
      progress := false;
      let arr = Array.of_list !current in
      let n = Array.length arr in
      let pos = ref 0 in
      while !pos < n && !spent < budget do
        let keep = ref [] in
        Array.iteri
          (fun i s ->
            if i < !pos || i >= !pos + !chunk then keep := s :: !keep)
          arr;
        let candidate = List.rev !keep in
        if List.length candidate < n && try_run candidate then begin
          current := candidate;
          progress := true;
          pos := n (* restart scanning on the smaller plan *)
        end
        else pos := !pos + !chunk
      done;
      if !progress then
        chunk := Int.max 1 (Int.min !chunk (List.length !current))
      else if !chunk = 1 then chunk := 0
      else chunk := !chunk / 2
    done;
    !current
  in
  let shrink_values current =
    let current = ref current in
    let again = ref true in
    while !again && !spent < budget do
      again := false;
      List.iteri
        (fun i s ->
          match smaller s.action with
          | None -> ()
          | Some a ->
              let candidate =
                List.mapi
                  (fun j s' -> if j = i then { s' with action = a } else s')
                  !current
              in
              if try_run candidate then begin
                current := candidate;
                again := true
              end)
        !current
    done;
    !current
  in
  let result = shrink_values (drop_chunks plan) in
  (result, !spent)

(* --- plan files --- *)

type 'a format = {
  header : string;
  noun : string;
  index_is : string;
  encode : 'a -> string * int list;
  decode : string -> int list -> 'a option;
}

let pp format fmt plan =
  List.iter
    (fun { index; action } ->
      let token, args = format.encode action in
      Format.fprintf fmt "%s %d" token index;
      List.iter (Format.fprintf fmt " %d") args;
      Format.fprintf fmt "@.")
    plan

let save format path plan =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# %s\n# %d %s(s); index = %s\n" format.header
        (List.length plan) format.noun format.index_is;
      let fmt = Format.formatter_of_out_channel oc in
      pp format fmt plan;
      Format.pp_print_flush fmt ())

let load format path =
  In_channel.with_open_text path (fun ic ->
      let seen = Hashtbl.create 16 in
      let rec lines lineno steps =
        match In_channel.input_line ic with
        | None -> sorted steps
        | Some line ->
            let line = String.trim line in
            if line = "" || line.[0] = '#' then lines (lineno + 1) steps
            else begin
              let fail fmt =
                Printf.ksprintf
                  (fun what ->
                    failwith (Printf.sprintf "%s:%d: %s" path lineno what))
                  fmt
              in
              let bad () = fail "malformed %s %S" format.noun line in
              let nat s =
                match int_of_string_opt s with
                | Some n when n >= 0 -> n
                | _ -> bad ()
              in
              match String.split_on_char ' ' line with
              | token :: i :: args ->
                  let index = nat i in
                  let action =
                    match format.decode token (List.map nat args) with
                    | Some a -> a
                    | None -> bad ()
                  in
                  if Hashtbl.mem seen index then
                    fail "duplicate index %d" index;
                  Hashtbl.add seen index ();
                  lines (lineno + 1) ({ index; action } :: steps)
              | _ -> bad ()
            end
      in
      lines 1 [])

(* [load] for a --replay invocation: an empty (or comment-only) file
   would silently run unperturbed and report success for a plan that
   reproduces nothing; reject it instead. *)
let load_replay format path =
  match load format path with
  | [] ->
      failwith
        (Printf.sprintf "%s: no %ss to replay (empty or comment-only file)"
           path format.noun)
  | plan -> plan
