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

(* --- plan files ---

   One line format for every file of steps:

     # <header>
     <token> <index> <arg> ...
     ...
     end <count>

   The header line is literal, so a missing, empty or different first
   line is a version or corruption error.  Indices strictly ascend, as
   both the stream and the command log produce them, so a duplicated or
   reordered line is detected; the trailer carries the count, so a lost
   line or a truncated tail is detected; and every line ends in a
   newline, so a file cut inside its trailer is detected too.  Blank and
   [#] lines after the header are skipped. *)

type 'a format = {
  header : string;
  noun : string;
  encode : 'a -> string * int list;
  decode : string -> int list -> 'a option;
}

exception Corrupt of { path : string; what : string }

let () =
  Printexc.register_printer (function
    | Corrupt { path; what } -> Some (Printf.sprintf "corrupt %s: %s" path what)
    | _ -> None)

let corrupt path fmt =
  Printf.ksprintf (fun what -> raise (Corrupt { path; what })) fmt

let line format { index; action } =
  let token, args = format.encode action in
  String.concat " " (token :: List.map string_of_int (index :: args))

let pp format fmt plan =
  List.iter (fun s -> Format.fprintf fmt "%s@." (line format s)) plan

let save format path plan =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "# %s\n" format.header;
      List.iter (fun s -> output_string oc (line format s ^ "\n")) plan;
      Printf.fprintf oc "end %d\n" (List.length plan))

let load format path =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> corrupt path "unreadable: %s" msg
  in
  let header = "# " ^ format.header in
  (* Splitting a whole file at its newlines leaves an empty last
     piece. *)
  let rec lines lineno ended steps = function
    | [] | [ "" ] ->
        if ended then List.rev steps
        else corrupt path "line %d: truncated: no 'end' trailer" lineno
    | [ partial ] ->
        corrupt path "line %d: unterminated (truncated?) %S" lineno partial
    | line :: rest -> (
        let line = String.trim line in
        let next = lines (lineno + 1) in
        let fail fmt = corrupt path ("line %d: " ^^ fmt) lineno in
        let bad () = fail "malformed %s %S" format.noun line in
        let nat s =
          match int_of_string_opt s with
          | Some n when String.for_all (fun c -> '0' <= c && c <= '9') s -> n
          | _ -> bad ()
        in
        match String.split_on_char ' ' line with
        | _ when line = "" || line.[0] = '#' -> next ended steps rest
        | _ when ended -> fail "%S after the trailer" line
        | [ "end"; n ] ->
            let held = List.length steps in
            if nat n <> held then
              fail "trailer counts %s, the file holds %d" n held;
            next true steps rest
        | token :: i :: args ->
            let index = nat i in
            (match steps with
             | { index = p; _ } :: _ when p = index ->
                 fail "duplicate index %d" index
             | { index = p; _ } :: _ when p > index ->
                 fail "index %d after %d: indices must ascend" index p
             | _ -> ());
            (match format.decode token (List.map nat args) with
             | Some action -> next ended ({ index; action } :: steps) rest
             | None -> bad ())
        | _ -> bad ())
  in
  match String.split_on_char '\n' text with
  | first :: rest when String.trim first = header -> lines 2 false [] rest
  | _ -> corrupt path "line 1: not %S" header

(* [load] for a --replay invocation: an empty plan would silently run
   unperturbed and report success for a plan that reproduces nothing;
   reject it instead. *)
let load_replay format path =
  match load format path with
  | [] -> corrupt path "no %ss to replay" format.noun
  | plan -> plan
