(* Unit tests of the benchmark's statistics helpers. *)

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ]);
  Alcotest.check close "single" 7. (Stats.median [ 7. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: no samples")
    (fun () -> ignore (Stats.median []))

let samples n = List.init n (fun i -> float_of_int (i + 1))

let check_tail name n ~pct ~value ~beyond =
  match Stats.tail (samples n) with
  | None -> Alcotest.failf "%s: no tail for %d samples" name n
  | Some t ->
      Alcotest.check close (name ^ " pct") pct t.Stats.pct;
      Alcotest.check close (name ^ " value") value t.Stats.value;
      Alcotest.(check int) (name ^ " beyond") beyond t.Stats.beyond;
      Alcotest.(check int) (name ^ " n") n t.Stats.n

let test_tail () =
  (* 1000 samples: p99 leaves exactly ten beyond rank 990. *)
  check_tail "p99" 1000 ~pct:99. ~value:990. ~beyond:10;
  check_tail "p99.9" 10000 ~pct:99.9 ~value:9990. ~beyond:10;
  check_tail "p98" 500 ~pct:98. ~value:490. ~beyond:10;
  check_tail "p50" 20 ~pct:50. ~value:10. ~beyond:10;
  Alcotest.(check bool) "too few" true (Stats.tail (samples 19) = None);
  (* Order of the input does not matter. *)
  Alcotest.(check bool)
    "unsorted" true
    (Stats.tail (List.rev (samples 1000)) = Stats.tail (samples 1000))

let span name start dur depth = { Stats.name; start; dur; depth }

(* root [0,100] has children a [10,40] and b [50,70]; a has child c
   [20,30]; a second root d [200,210] has none. *)
let tree =
  [
    span "c" 20. 10. 2;
    span "a" 10. 30. 1;
    span "b" 50. 20. 1;
    span "root" 0. 100. 0;
    span "d" 200. 10. 0;
  ]

let test_self_times () =
  Alcotest.(check (list close))
    "nested" [ 10.; 20.; 20.; 50.; 10. ] (Stats.self_times tree);
  (* Overlapping children (two lanes folded into one parent) count
     their union once; a child overrunning its parent is clipped. *)
  let overlap =
    [
      span "p" 0. 10. 0; span "x" 1. 5. 1; span "y" 4. 4. 1; span "z" 9. 5. 1;
    ]
  in
  Alcotest.(check (list close))
    "union and clip" [ 2.; 5.; 4.; 5. ] (Stats.self_times overlap);
  (* A parent and child that start on the same tick still nest. *)
  Alcotest.(check (list close))
    "tie" [ 4.; 6. ]
    (Stats.self_times [ span "p" 0. 10. 0; span "q" 0. 6. 1 ])

let test_attribute () =
  let names = Array.of_list (List.map (fun s -> s.Stats.name) tree) in
  let key i = match names.(i) with "c" | "d" -> None | n -> Some n in
  (* c has no key and rolls up into a; d has no keyed ancestor. *)
  Alcotest.(check (list (pair string close)))
    "roll up"
    [ ("a", 30.); ("b", 20.); ("root", 50.) ]
    (Stats.attribute ~key tree);
  let layer i = Some (if names.(i) = "root" then "x" else "y") in
  Alcotest.(check (list (pair string close)))
    "sum per key" [ ("x", 50.); ("y", 60.) ]
    (Stats.attribute ~key:layer tree)

let () =
  Alcotest.run "perfbench-stats"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "self time" `Quick test_self_times;
          Alcotest.test_case "attribution" `Quick test_attribute;
        ] );
    ]
