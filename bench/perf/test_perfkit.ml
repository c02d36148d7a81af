(* Unit tests for the benchmark's span recorder and order statistics. *)

open Perfkit

let close = Alcotest.float 1e-9

let span ?(parent = -1) id layer start stop =
  { Span.id; parent; layer; name = layer; start; stop }

let self_of spans id =
  snd (List.find (fun ((s : Span.span), _) -> s.Span.id = id) (Span.self_times spans))

let test_self_nested () =
  (* root [0,10] > a [1,4] > b [2,3]; root > c [6,9] *)
  let spans =
    [ span 0 "bench" 0. 10.;
      span ~parent:0 1 "core" 1. 4.;
      span ~parent:1 2 "image" 2. 3.;
      span ~parent:0 3 "core" 6. 9. ]
  in
  Alcotest.check close "root" 4. (self_of spans 0);
  Alcotest.check close "a" 2. (self_of spans 1);
  Alcotest.check close "b" 1. (self_of spans 2);
  Alcotest.check close "c" 3. (self_of spans 3);
  Alcotest.(check (list (triple string close int)))
    "by layer"
    [ ("bench", 4., 1); ("core", 5., 2); ("image", 1., 1) ]
    (Span.by_layer spans)

let test_self_overlapping () =
  (* children overlap each other and run past their parent's end: only
     the union of the clipped intervals is subtracted *)
  let spans =
    [ span 0 "bench" 0. 10.;
      span ~parent:0 1 "core" 1. 5.;
      span ~parent:0 2 "core" 3. 7.;
      span ~parent:0 3 "objmem" 9. 12. ]
  in
  (* covered: [1,7] from the overlapping pair, [9,10] from the clipped one *)
  Alcotest.check close "root" 3. (self_of spans 0);
  Alcotest.check close "covered" 7. (Span.covered ~lo:0. ~hi:10. [ (1., 5.); (3., 7.); (9., 12.) ])

let test_by_layer_root_filter () =
  let spans =
    [ { (span 0 "bench" 0. 4.) with Span.name = "pass" };
      span ~parent:0 1 "core" 1. 3.;
      span 2 "objmem" 5. 6. ]
  in
  Alcotest.(check (list (triple string close int)))
    "only spans under a pass"
    [ ("bench", 2., 1); ("core", 2., 1) ]
    (Span.by_layer ~root:(fun s -> s.Span.name = "pass") spans)

let test_recorder () =
  Span.reset ();
  Span.start ();
  let v = Span.record ~layer:"core" "outer" (fun () -> Span.record ~layer:"image" "inner" (fun () -> 42)) in
  Span.stop ();
  ignore (Span.record ~layer:"core" "ignored" (fun () -> ()));
  Alcotest.(check int) "value" 42 v;
  match Span.spans () with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner first to close" "inner" inner.Span.name;
      Alcotest.(check int) "parent link" outer.Span.id inner.Span.parent;
      Alcotest.(check int) "root" (-1) outer.Span.parent
  | l -> Alcotest.failf "expected two spans, got %d" (List.length l)

let test_chrome_json () =
  let j = Json.to_string (Span.chrome_json [ span 0 "core" 0. 1. ]) in
  match Json.member "traceEvents" (Json.parse j) with
  | Some (Json.Arr [ e ]) ->
      Alcotest.(check (option string)) "phase" (Some "X") (Option.bind (Json.member "ph" e) Json.to_str);
      Alcotest.(check (option string)) "category" (Some "core") (Option.bind (Json.member "cat" e) Json.to_str)
  | _ -> Alcotest.fail "one complete event expected"

let ints = List.map float_of_int

let test_percentile_tail_rule () =
  let xs = ints (List.init 1000 (fun i -> i + 1)) in
  Alcotest.(check (option close)) "p99 of 1000" (Some 990.) (Stats.percentile xs 99.);
  Alcotest.(check (option close)) "p50 of 1000" (Some 500.) (Stats.percentile xs 50.);
  Alcotest.(check (option close)) "p99 of 999: only 9 beyond" None
    (Stats.percentile (ints (List.init 999 (fun i -> i + 1))) 99.);
  Alcotest.(check (option close)) "p90 of 100" (Some 90.)
    (Stats.percentile (ints (List.init 100 (fun i -> 100 - i))) 90.);
  Alcotest.(check (option close)) "p50 of 19" None
    (Stats.percentile (ints (List.init 19 Fun.id)) 50.);
  Alcotest.(check (option close)) "no samples" None (Stats.percentile [] 50.);
  Alcotest.(check int) "beyond p95 of 200" 10 (Stats.beyond ~n:200 95.)

let test_median_quartiles () =
  Alcotest.check close "odd median" 3. (Stats.median (ints [ 5; 1; 3 ]));
  Alcotest.check close "even median" 2.5 (Stats.median (ints [ 4; 1; 3; 2 ]));
  (* statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (ints (List.init 10 (fun i -> i + 1))) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  let q1, _, q3 = Stats.quartiles (ints [ 2; 1 ]) in
  Alcotest.check close "q1 of two" 0.75 q1;
  Alcotest.check close "q3 of two" 2.25 q3;
  let q1, q2, q3 = Stats.quartiles [ 7. ] in
  Alcotest.(check (list close)) "one sample" [ 7.; 7.; 7. ] [ q1; q2; q3 ];
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread (ints (List.init 10 (fun i -> i + 1))))

let test_json_round_trip () =
  let v =
    Json.Obj
      [ ("a", Json.Num 0.1); ("b", Json.Arr [ Json.Bool true; Json.Null ]);
        ("c", Json.Str "q\"uote\n"); ("d", Json.Num 1e6) ]
  in
  Alcotest.(check string) "round trip" (Json.to_string v) (Json.to_string (Json.parse (Json.to_string v)));
  Alcotest.(check bool) "garbage rejected" true
    (match Json.parse "{\"a\": }" with _ -> false | exception Json.Parse_error _ -> true)

let () =
  Alcotest.run "perfkit"
    [ ( "span",
        [ Alcotest.test_case "self time with nested children" `Quick test_self_nested;
          Alcotest.test_case "self time with overlapping children" `Quick test_self_overlapping;
          Alcotest.test_case "layer totals under pass roots" `Quick test_by_layer_root_filter;
          Alcotest.test_case "recorder nesting and off switch" `Quick test_recorder;
          Alcotest.test_case "chrome trace event" `Quick test_chrome_json ] );
      ( "stats",
        [ Alcotest.test_case "nearest rank and the tail rule" `Quick test_percentile_tail_rule;
          Alcotest.test_case "median and quartiles" `Quick test_median_quartiles ] );
      ("json", [ Alcotest.test_case "round trip" `Quick test_json_round_trip ]) ]
