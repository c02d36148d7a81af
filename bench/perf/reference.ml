(* A fixed reference loop, timed many times in every run.  A shared
   host's speed drifts by tens of percent over minutes as other tenants
   come and go, and the drift moves the workload's passes and nearby runs
   of this loop alike, so their ratio is steadier than either time.  The
   loop mimics the simulator's host work: an unpredictable eight-way
   dispatch, random read-modify-write over an 8 MB array, and short-lived
   allocation.  It lives in the benchmark, which performance changes leave
   alone, so the unit stays fixed across commits. *)

let words = 1 lsl 20

let arr = lazy (Array.make words 0)

let iterations = 2_500_000

let run () =
  let a = Lazy.force arr in
  let x = ref 12345 and r0 = ref 0 and r1 = ref 1 and keep = ref [] in
  for i = 1 to iterations do
    x := ((!x * 1103515245) + 12345) land max_int;
    (match (!x lsr 20) land 7 with
     | 0 -> r0 := !r0 + !r1
     | 1 -> r1 := !r1 lxor !r0
     | 2 -> r0 := !r0 - i
     | 3 -> r1 := !r1 + (!r0 land 255)
     | 4 ->
         let j = !x land (words - 1) in
         a.(j) <- a.(j) + !r0
     | 5 -> r0 := a.(!x land (words - 1)) + !r1
     | 6 -> keep := [ !r0; !r1 ]
     | _ -> r1 := !r1 * 3);
    if i land 3 = 0 then begin
      let j = (!x lsr 7) land (words - 1) in
      a.(j) <- a.(j) + 1
    end
  done;
  ignore (Sys.opaque_identity (!keep, !r0, !r1))

(* Host seconds for one run of the loop (about 30 ms). *)
let time () =
  let t0 = Unix.gettimeofday () in
  run ();
  Unix.gettimeofday () -. t0
