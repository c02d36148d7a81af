(* Host-time spans around the benchmark's calls into the repository's
   layers.  Spans are kept in memory while the benchmark runs and written
   out at the end as Chrome Trace Event JSON, which Perfetto and
   chrome://tracing open as-is.  A span's self time is its duration minus
   the part of its interval that its children cover. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  layer : string;
  name : string;
  start : float;  (** seconds, host clock *)
  stop : float;
}

let enabled = ref false
let recorded : span list ref = ref []  (* newest first *)
let stack : int list ref = ref []
let next_id = ref 0
let origin = ref 0.

(* Drop every recorded span; the trace's time origin is now. *)
let reset () =
  recorded := [];
  stack := [];
  next_id := 0;
  origin := Unix.gettimeofday ()

let start () = enabled := true

let stop () = enabled := false

let spans () = List.rev !recorded

(* Run [f] inside a span; a no-op wrapper while recording is off. *)
let record ~layer name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    let close () =
      let stop = Unix.gettimeofday () in
      stack := List.tl !stack;
      recorded := { id; parent; layer; name; start; stop } :: !recorded
    in
    Fun.protect ~finally:close f
  end

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* (span, self seconds) for every span in [spans]. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Per layer: total self seconds and span count, over the spans that
   descend from a root span satisfying [root], sorted by layer name. *)
let by_layer ?(root = fun _ -> true) spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec root_of s =
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> root_of p
    | None -> s
  in
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (s, self) ->
      if root (root_of s) then begin
        let t, c = Option.value ~default:(0., 0) (Hashtbl.find_opt acc s.layer) in
        Hashtbl.replace acc s.layer (t +. self, c + 1)
      end)
    (self_times spans);
  Hashtbl.fold (fun layer (t, c) l -> (layer, t, c) :: l) acc []
  |> List.sort compare

let chrome_json spans =
  let us t = Json.Num (Float.round ((t -. !origin) *. 1e7) /. 10.) in
  Json.Obj
    [ ("displayTimeUnit", Json.Str "ms");
      ( "traceEvents",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [ ("name", Json.Str s.name);
                   ("cat", Json.Str s.layer);
                   ("ph", Json.Str "X");
                   ("ts", us s.start);
                   ("dur", Json.Num (Float.round ((s.stop -. s.start) *. 1e7) /. 10.));
                   ("pid", Json.Num 1.);
                   ("tid", Json.Num 1.);
                   ( "args",
                     Json.Obj
                       [ ("id", Json.Num (float_of_int s.id));
                         ("parent", Json.Num (float_of_int s.parent)) ] ) ])
             spans) ) ]
