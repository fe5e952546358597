(* Parallel execution: the domain pool's ordering/exception contract,
   and serial-vs-parallel bit-identity of every consumer grain — table
   rows, partitioned config sweeps, fuzz campaigns — plus the
   exactly-once guarantee for strategy-fallback accounting and the
   domain safety of the Obs layer. *)

let with_pool n f =
  let pool = Placement.Pool.create n in
  Fun.protect
    ~finally:(fun () -> Placement.Pool.shutdown pool)
    (fun () -> f pool)

let with_default_pool n f =
  with_pool n (fun pool ->
      Placement.Pool.set_default (Some pool);
      Fun.protect
        ~finally:(fun () -> Placement.Pool.set_default None)
        (fun () -> f pool))

(* ---------------- pool contract ---------------- *)

let prop_map_order =
  QCheck.Test.make ~name:"Pool.map = List.map (order preserved)" ~count:25
    QCheck.(list_of_size Gen.(int_range 0 60) small_nat)
    (fun xs ->
      with_pool 3 (fun pool ->
          let f x = (x * 2) + 1 in
          Placement.Pool.map pool f xs = List.map f xs))

(* Tasks raise [Ir.Diag.Fail] carrying their index; whatever subset
   fails and whichever domain ran it, the caller sees the lowest-index
   task's exception with its original payload. *)
let prop_map_exception =
  QCheck.Test.make
    ~name:"Pool.map re-raises the lowest-index failure, payload intact"
    ~count:50
    QCheck.(make ~print:string_of_int Gen.(int_bound 1023))
    (fun mask ->
      with_pool 3 (fun pool ->
          let n = 10 in
          let fails i = mask land (1 lsl i) <> 0 in
          let f i =
            if fails i then
              raise
                (Ir.Diag.Fail
                   (Ir.Diag.make ~stage:Ir.Diag.Strategy
                      ~func:(string_of_int i) "task %d failed" i))
            else i
          in
          let expect_first =
            List.find_opt fails (List.init n (fun i -> i))
          in
          match
            (expect_first, Placement.Pool.map pool f (List.init n (fun i -> i)))
          with
          | None, ys -> ys = List.init n (fun i -> i)
          | Some _, _ -> false (* should have raised *)
          | exception Ir.Diag.Fail d -> (
            match expect_first with
            | Some i -> d.Ir.Diag.func = Some (string_of_int i)
            | None -> false)))

(* A pool task that submits its own job to the same pool must complete
   (the submitter helps run its job), whatever the lane count. *)
let nested_map () =
  with_pool 2 (fun pool ->
      let inner i =
        Placement.Pool.map pool (fun j -> (i * 10) + j) [ 0; 1; 2; 3 ]
      in
      let rows = Placement.Pool.map pool inner [ 0; 1; 2; 3 ] in
      Alcotest.(check (list (list int)))
        "nested results"
        (List.map (fun i -> List.map (fun j -> (i * 10) + j) [ 0; 1; 2; 3 ])
           [ 0; 1; 2; 3 ])
        rows)

(* ---------------- serial vs parallel bit-identity ---------------- *)

(* The rendered tables, then Figures A-C as `impact all` prints them. *)
let render_tables ids names =
  let ctx = Experiments.Context.create ~names () in
  List.map
    (fun id ->
      let spec = Experiments.Runner.find id in
      Report.Table.render
        (Experiments.Runner.run_spec ctx spec).Experiments.Runner.table)
    ids
  @ [ Experiments.Runner.figures ctx ]

(* Split the figure string at its title lines; each block is the rows
   of one figure. *)
let figure_blocks figures =
  List.fold_left
    (fun blocks line ->
      if String.starts_with ~prefix:"Figure " line then [] :: blocks
      else
        match blocks with
        | rows :: rest -> (line :: rows) :: rest
        | [] -> Alcotest.fail "figure row before any title")
    []
    (String.split_on_char '\n' figures)

(* The same tables and figures rendered on the serial path and under a
   4-lane default pool must be byte-identical strings. *)
let tables_bit_identical () =
  let ids = [ "6"; "17" ] and names = [ "cmp"; "wc" ] in
  let serial = render_tables ids names in
  let parallel = with_default_pool 4 (fun _ -> render_tables ids names) in
  List.iter2
    (fun s p -> Alcotest.(check string) "rendered output" s p)
    serial parallel;
  (* Figures A, B and C each have one row per benchmark: a line whose
     first word is its name. *)
  let blocks = figure_blocks (List.nth serial (List.length ids)) in
  Alcotest.(check int) "three figures" 3 (List.length blocks);
  List.iter
    (fun rows ->
      List.iter
        (fun name ->
          let is_row l =
            match String.split_on_char ' ' (String.trim l) with
            | w :: _ -> w = name
            | [] -> false
          in
          Alcotest.(check int)
            (Printf.sprintf "one %s row" name)
            1
            (List.length (List.filter is_row rows)))
        names)
    blocks

(* simulate_many's contiguous config partition concatenates back to the
   serial sweep's exact results: with no default pool set (-j 1) it walks
   the trace once on this domain; under a 4-lane pool (-j 4) it splits. *)
let driver_partition_identical () =
  let ctx = Experiments.Context.create ~names:[ "cmp" ] () in
  let e = Experiments.Context.find ctx "cmp" in
  let map = Experiments.Context.optimized_map e in
  let trace = Experiments.Context.trace e in
  let configs = Experiments.Table6.configs in
  let serial = Sim.Driver.simulate_many configs map trace in
  let parallel =
    with_default_pool 4 (fun _ -> Sim.Driver.simulate_many configs map trace)
  in
  Alcotest.(check bool) "results identical" true (serial = parallel)

(* A strategy that raises only on a syntactic property of the generated
   program, so a fuzz campaign finds a deterministic subset of seeds. *)
let selective_strategy =
  {
    Placement.Strategy.natural with
    Placement.Strategy.id = "selective";
    title = "raises on programs whose entry has a multiple-of-3 blocks";
    layout =
      (fun f w ->
        if Array.length f.Ir.Prog.blocks mod 3 = 0 then
          failwith "selective boom"
        else Placement.Strategy.natural.Placement.Strategy.layout f w);
  }

let fuzz_parallel_identical () =
  let strategies = [ selective_strategy ] in
  let run pool =
    Experiments.Fuzz.run ~size:60 ~strategies ?pool ~first_seed:1 ~count:12
      ()
  in
  let serial = run None in
  let parallel = with_pool 3 (fun pool -> run (Some pool)) in
  Alcotest.(check (list int))
    "same failing seeds"
    (List.map (fun f -> f.Experiments.Fuzz.seed) serial)
    (List.map (fun f -> f.Experiments.Fuzz.seed) parallel);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "identical failure report"
        (Fmt.str "%a" Experiments.Fuzz.report_failure a)
        (Fmt.str "%a" Experiments.Fuzz.report_failure b))
    serial parallel

(* ---------------- exactly-once fallback accounting ---------------- *)

let raising_strategy =
  {
    Placement.Strategy.natural with
    Placement.Strategy.id = "explosive-par";
    title = "always raises (deliberately broken)";
    layout = (fun _ _ -> failwith "boom");
  }

(* Four concurrent callers race [strategy_map] on one entry with a
   raising strategy: all must get the same fallback map, and the
   warning and the fallback counter must record exactly once. *)
let concurrent_fallback_once () =
  let ctx = Experiments.Context.create ~names:[ "cmp" ] () in
  let e = Experiments.Context.find ctx "cmp" in
  let metrics0 = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let before = Obs.Metrics.value Experiments.Context.strategy_fallbacks in
  let maps =
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.set_enabled metrics0)
      (fun () ->
        with_pool 2 (fun pool ->
            Placement.Pool.map pool
              (fun _ -> Experiments.Context.strategy_map e raising_strategy)
              [ 0; 1; 2; 3 ]))
  in
  let natural = Experiments.Context.natural_map e in
  List.iter
    (fun m ->
      Alcotest.(check bool) "natural map substituted" true (m == natural))
    maps;
  Alcotest.(check bool) "fell back" true
    (Experiments.Context.fell_back e "explosive-par");
  Alcotest.(check int) "exactly one warning" 1
    (List.length (Experiments.Context.warnings e));
  Alcotest.(check int) "fallback counter bumped once" (before + 1)
    (Obs.Metrics.value Experiments.Context.strategy_fallbacks)

(* ---------------- Obs layer domain safety ---------------- *)

let spans_across_domains () =
  let spans0 = Obs.Span.enabled () in
  Obs.Span.set_enabled true;
  Obs.Span.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.Span.set_enabled spans0)
    (fun () ->
      let names =
        with_pool 2 (fun pool ->
            Placement.Pool.map pool
              (fun i ->
                Obs.Span.with_ ~stage:(Printf.sprintf "par-span-%d" i)
                  (fun () -> i))
              [ 0; 1; 2; 3 ])
      in
      Alcotest.(check (list int)) "results" [ 0; 1; 2; 3 ] names;
      let evs =
        List.filter
          (fun (e : Obs.Span.event) ->
            String.length e.Obs.Span.name >= 8
            && String.sub e.Obs.Span.name 0 8 = "par-span")
          (Obs.Span.events ())
      in
      Alcotest.(check int) "all 4 spans visible" 4 (List.length evs);
      let seqs = List.map (fun (e : Obs.Span.event) -> e.Obs.Span.seq) evs in
      Alcotest.(check int) "sequence numbers distinct" 4
        (List.length (List.sort_uniq compare seqs)))

let counters_across_domains () =
  let c = Obs.Metrics.counter "test.parallel.bumps" in
  let metrics0 = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let before = Obs.Metrics.value c in
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled metrics0)
    (fun () ->
      with_pool 3 (fun pool ->
          ignore
            (Placement.Pool.map pool
               (fun _ -> Obs.Metrics.incr c)
               (List.init 200 (fun i -> i)))));
  Alcotest.(check int) "no lost increments" (before + 200)
    (Obs.Metrics.value c)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_map_order;
    QCheck_alcotest.to_alcotest prop_map_exception;
    Alcotest.test_case "nested Pool.map completes" `Quick nested_map;
    Alcotest.test_case "tables bit-identical at -j 1 vs -j 4" `Slow
      tables_bit_identical;
    Alcotest.test_case "driver config partition identical" `Quick
      driver_partition_identical;
    Alcotest.test_case "fuzz campaign identical at -j 1 vs -j 3" `Slow
      fuzz_parallel_identical;
    Alcotest.test_case "concurrent strategy fallback records once" `Quick
      concurrent_fallback_once;
    Alcotest.test_case "spans from worker domains stitched" `Quick
      spans_across_domains;
    Alcotest.test_case "counter increments commute across domains" `Quick
      counters_across_domains;
  ]
