(* A bounded event trace.  The ring is struct-of-arrays: slot [i] of each
   array holds one field of one event, and [codes] packs the kind, the
   detail code, the resource id and the vp into one int, so recording an
   event is four int stores with no allocation and no write barrier.
   Only a [Text] detail touches [texts], the one pointer array.

   [next] is the slot the next event lands in; it reaches [capacity]
   after the last slot is written and wraps to 0 on the following record,
   so the hot path needs no division.  [total] counts every event ever
   recorded, so the live window is the last [min total capacity] slots
   before [next].  The arrays stay empty until the first record. *)

type kind =
  | Lock_acquire
  | Lock_contend
  | Section_enter
  | Section_exit
  | Mutation
  | Owner_touch
  | Violation
  | Fault_event
  | Steal
  | Major

type detail = Empty | Finish | Owner | Words | Slot | Address | Text of string

type event = {
  vp : int;
  time : int;
  kind : kind;
  resource : string;
  detail : string;
}

type t = {
  capacity : int;
  mutable codes : int array;  (* see [pack] *)
  mutable times : int array;
  mutable arg_a : int array;
  mutable arg_b : int array;
  mutable texts : string array;  (* read only where the detail is Text *)
  mutable next : int;
  mutable total : int;
  ids : (string, int) Hashtbl.t;  (* resource name -> id *)
  mutable names : string array;  (* id -> resource name *)
}

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity";
  { capacity; codes = [||]; times = [||]; arg_a = [||]; arg_b = [||];
    texts = [||]; next = 0; total = 0; ids = Hashtbl.create 16; names = [||] }

(* Resource ids take 20 bits of a packed code; the vp, offset by one for
   the engine's -1, takes the bits above them. *)
let resource_bits = 20

let recorded t = t.total

let intern t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
      let id = Hashtbl.length t.ids in
      if id = 1 lsl resource_bits then
        invalid_arg "Trace.intern: too many names";
      if id = Array.length t.names then begin
        let names = Array.make (Int.max 16 (2 * id)) "" in
        Array.blit t.names 0 names 0 id;
        t.names <- names
      end;
      t.names.(id) <- name;
      Hashtbl.add t.ids name id;
      id

let name t id = t.names.(id)

let kinds =
  [| Lock_acquire; Lock_contend; Section_enter; Section_exit; Mutation;
     Owner_touch; Violation; Fault_event; Steal; Major |]

let kind_code = function
  | Lock_acquire -> 0
  | Lock_contend -> 1
  | Section_enter -> 2
  | Section_exit -> 3
  | Mutation -> 4
  | Owner_touch -> 5
  | Violation -> 6
  | Fault_event -> 7
  | Steal -> 8
  | Major -> 9

let text_code = 6

let detail_code = function
  | Empty -> 0
  | Finish -> 1
  | Owner -> 2
  | Words -> 3
  | Slot -> 4
  | Address -> 5
  | Text _ -> text_code

let details = [| Empty; Finish; Owner; Words; Slot; Address |]

(* The slot after the last one: allocate the ring on the first record,
   otherwise wrap around to overwrite the oldest event. *)
let wrap t =
  if Array.length t.codes = 0 then begin
    let n = t.capacity in
    t.codes <- Array.make n 0;
    t.times <- Array.make n 0;
    t.arg_a <- Array.make n 0;
    t.arg_b <- Array.make n 0;
    t.texts <- Array.make n ""
  end;
  0

let pack ~vp kind resource detail =
  kind_code kind
  lor (detail_code detail lsl 4)
  lor (resource lsl 8)
  lor ((vp + 1) lsl (8 + resource_bits))

let record t ~vp ~time ~kind ~resource detail a b =
  let i = if t.next < Array.length t.codes then t.next else wrap t in
  t.codes.(i) <- pack ~vp kind resource detail;
  t.times.(i) <- time;
  t.arg_a.(i) <- a;
  t.arg_b.(i) <- b;
  (match detail with Text s -> t.texts.(i) <- s | _ -> ());
  t.next <- i + 1;
  t.total <- t.total + 1

let note t ~vp ~time ~kind ~resource text =
  record t ~vp ~time ~kind ~resource:(intern t resource) (Text text) 0 0

let render detail a b =
  match detail with
  | Empty -> ""
  | Finish -> Printf.sprintf "finish=%d" a
  | Owner -> Printf.sprintf "owner=%d" a
  | Words -> Printf.sprintf "%d words" a
  | Slot -> Printf.sprintf "%d[%d]" a b
  | Address -> string_of_int a
  | Text s -> s

let event t i =
  let code = t.codes.(i) in
  let d = (code lsr 4) land 15 in
  let detail = if d = text_code then Text t.texts.(i) else details.(d) in
  { vp = (code lsr (8 + resource_bits)) - 1;
    time = t.times.(i);
    kind = kinds.(code land 15);
    resource = t.names.((code lsr 8) land ((1 lsl resource_bits) - 1));
    detail = render detail t.arg_a.(i) t.arg_b.(i) }

let last t n =
  let cap = t.capacity in
  let n = Int.min n (Int.min t.total cap) in
  (* the newest event is at next - 1, so the oldest of n is at next - n *)
  List.init n (fun i -> event t ((t.next - n + i + cap) mod cap))

let clear t =
  t.next <- 0;
  t.total <- 0

let kind_name = function
  | Lock_acquire -> "acquire"
  | Lock_contend -> "contend"
  | Section_enter -> "enter"
  | Section_exit -> "exit"
  | Mutation -> "mutate"
  | Owner_touch -> "touch"
  | Violation -> "VIOLATION"
  | Fault_event -> "FAULT"
  | Steal -> "steal"
  | Major -> "major"

let pp_event fmt e =
  let vp = if e.vp < 0 then "--" else string_of_int e.vp in
  let time = if e.time < 0 then "?" else string_of_int e.time in
  Format.fprintf fmt "[vp %2s @@ %10s] %-9s %-20s %s" vp time
    (kind_name e.kind) e.resource e.detail

let dump fmt t ~n =
  let events = last t n in
  if events = [] then Format.fprintf fmt "(trace empty)@."
  else begin
    Format.fprintf fmt "trace: last %d of %d events@." (List.length events)
      t.total;
    List.iter (fun e -> Format.fprintf fmt "  %a@." pp_event e) events
  end
