(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Tables 1-9, the section 4.2.4 comparison, and the section 4.2.1 timing
   model) over the full ten-benchmark suite, printing measured values next
   to the paper's where available.  `--only t6,t8` restricts the run to a
   subset of the experiments and `--benchmarks wc,grep` to a subset of the
   suite, for CI and fast iteration.

   Part 2 (full runs only) measures the block-granular single-pass
   simulation engine against the word-granular reference on one
   benchmark, then runs one Bechamel micro-benchmark per table, timing
   the core computation that regenerates it (profiling, inlining, trace
   selection, layout, cache simulation variants, code scaling). *)

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

let only_ids : string list option ref = ref None
let bench_names : string list option ref = ref None
let jobs = ref (Domain.recommended_domain_count ())
let compare_serial = ref false
let scale = ref 1

(* Machine-readable report destination; empty string disables it. *)
let out_file = ref "BENCH_pr7.json"

let split_csv s = String.split_on_char ',' s |> List.filter (( <> ) "")

(* Accept both "6" and "t6" for a table id. *)
let normalize_id id =
  if String.length id > 1 && (id.[0] = 't' || id.[0] = 'T') then
    String.sub id 1 (String.length id - 1)
  else id

let parse_cli () =
  let spec =
    [
      ( "--only",
        Arg.String
          (fun s ->
            match List.map normalize_id (split_csv s) with
            | [] -> raise (Arg.Bad "--only needs at least one table id")
            | ids -> only_ids := Some ids),
        "IDS  Regenerate only these tables (comma-separated, e.g. t6,t8)" );
      ( "--benchmarks",
        Arg.String
          (fun s ->
            match split_csv s with
            | [] -> raise (Arg.Bad "--benchmarks needs at least one name")
            | ns -> bench_names := Some ns),
        "NAMES  Restrict to these benchmarks (comma-separated, e.g. wc,grep)"
      );
      ( "--out",
        Arg.Set_string out_file,
        "FILE  Write the machine-readable bench report to FILE (default \
         BENCH_pr7.json; empty disables)" );
      ( "--scale",
        Arg.Int
          (fun n ->
            if n < 1 then raise (Arg.Bad "--scale must be >= 1");
            scale := n),
        "N  Workload scale factor (default 1 = the paper's programs; \
         above 1 welds on the generated auxiliary program)" );
      ( "-j",
        Arg.Int
          (fun n ->
            if n < 1 then raise (Arg.Bad "-j must be >= 1");
            jobs := n),
        "N  Run the table regeneration over N domains (default: the \
         number of cores; 1 = the serial path)" );
      ( "--jobs",
        Arg.Int
          (fun n ->
            if n < 1 then raise (Arg.Bad "--jobs must be >= 1");
            jobs := n),
        "N  Same as -j" );
      ( "--compare-serial",
        Arg.Set compare_serial,
        "  First regenerate every table serially (no pool), then again \
         under -j; assert the rendered tables are identical and report \
         the speedup" );
    ]
  in
  Arg.parse spec
    (fun anon -> raise (Arg.Bad ("unexpected argument " ^ anon)))
    "bench/main.exe [--only t6,t8] [--benchmarks wc,grep] [--out FILE] \
     [--scale N] [-j N] [--compare-serial]"

(* ------------------------------------------------------------------ *)
(* Part 1: table regeneration                                          *)
(* ------------------------------------------------------------------ *)

let regenerate_tables specs names =
  say "=== IMPACT-I instruction placement reproduction: %s ==="
    (match !only_ids with
    | None -> "all experiments"
    | Some ids -> "experiments " ^ String.concat "," ids);
  say "(building pipelines for %s; scale %d)"
    (match names with
    | None -> "the ten benchmarks"
    | Some ns -> String.concat ", " ns)
    !scale;
  let t0 = Unix.gettimeofday () in
  let ctx = Experiments.Context.create ~scale:!scale ?names () in
  (* Force each benchmark's pipeline + trace up front so the per-table
     times below measure table computation, not lazy pipeline builds —
     and so the report can carry a per-benchmark build cost. *)
  let bench_seconds =
    Experiments.Context.map_entries
      (fun e ->
        let t = Unix.gettimeofday () in
        ignore (Experiments.Context.pipeline e);
        ignore (Experiments.Context.trace e);
        (Experiments.Context.name e, Unix.gettimeofday () -. t))
      ctx
  in
  let outcomes =
    List.map
      (fun spec ->
        let o = Experiments.Runner.run_spec ctx spec in
        say "";
        print_string (Report.Table.render o.Experiments.Runner.table);
        say "[table %s regenerated in %.1fs]" spec.Experiments.Runner.id
          o.Experiments.Runner.wall_seconds;
        o)
      specs
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  say "";
  say "=== %d experiment(s) regenerated in %.1fs ===" (List.length specs)
    elapsed;
  (ctx, bench_seconds, outcomes, elapsed)

(* --compare-serial reference pass: the same tables on a fresh context
   with no pool, unrendered.  Runs before the default pool exists, so
   every consumer takes its serial path. *)
let serial_reference specs names =
  say "";
  say "=== --compare-serial: serial reference pass (no pool) ===";
  let t0 = Unix.gettimeofday () in
  let ctx = Experiments.Context.create ~scale:!scale ?names () in
  let outcomes =
    List.map (fun spec -> Experiments.Runner.run_spec ctx spec) specs
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  say "=== serial reference: %d experiment(s) in %.1fs ==="
    (List.length specs) elapsed;
  (outcomes, elapsed)

(* Bit-identity assertion between the serial reference tables and the
   parallel run's: title, header and every row must match exactly. *)
let assert_identical_tables serial parallel =
  List.iter2
    (fun (s : Experiments.Runner.outcome) (p : Experiments.Runner.outcome) ->
      let st = s.Experiments.Runner.table
      and pt = p.Experiments.Runner.table in
      let same =
        Report.Table.title st = Report.Table.title pt
        && Report.Table.header st = Report.Table.header pt
        && Report.Table.rows st = Report.Table.rows pt
      in
      if not same then begin
        Printf.eprintf
          "FATAL: table %s diverged between -j 1 and -j %d\n--- serial\n\
           %s--- parallel\n%s"
          s.Experiments.Runner.spec.Experiments.Runner.id !jobs
          (Report.Table.render st) (Report.Table.render pt);
        exit 1
      end)
    serial parallel;
  say "";
  say "=== --compare-serial: all %d table(s) identical at -j 1 and -j %d ==="
    (List.length serial) !jobs

(* ------------------------------------------------------------------ *)
(* Engine comparison: the seed's per-config word-granular replay vs the
   block-granular single-pass engine, on one benchmark.                *)
(* ------------------------------------------------------------------ *)

type engine_report = {
  engine_bench : string;
  engine_configs : int;
  reference_seconds : float;
  fast_seconds : float;
  speedup : float;
  identical : bool;
}

let engine_speedup ctx =
  match Experiments.Context.entries ctx with
  | [] -> None
  | e :: _ ->
    let map = Experiments.Context.optimized_map e in
    let trace = Experiments.Context.trace e in
    let configs = Experiments.Table6.configs in
    let time f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let reference, t_ref =
      time (fun () ->
          List.map (fun c -> Sim.Driver.simulate c map trace) configs)
    in
    let fast, t_fast = time (fun () -> Sim.Driver.simulate_many configs map trace) in
    let identical =
      List.for_all2
        (fun (a : Sim.Driver.result) (b : Sim.Driver.result) ->
          a.Sim.Driver.misses = b.Sim.Driver.misses
          && a.Sim.Driver.words_fetched = b.Sim.Driver.words_fetched
          && a.Sim.Driver.avg_exec_insns = b.Sim.Driver.avg_exec_insns
          && a.Sim.Driver.eat_blocking = b.Sim.Driver.eat_blocking)
        reference fast
    in
    let speedup = t_ref /. Float.max t_fast 1e-9 in
    say "";
    say
      "=== engine speedup (%s, %d configs): word-granular simulate %.2fs \
       vs single-pass simulate_many %.2fs = %.1fx%s ==="
      (Experiments.Context.name e)
      (List.length configs) t_ref t_fast speedup
      (if identical then ", results identical" else " — METRICS DIVERGE");
    Some
      {
        engine_bench = Experiments.Context.name e;
        engine_configs = List.length configs;
        reference_seconds = t_ref;
        fast_seconds = t_fast;
        speedup;
        identical;
      }

(* Differential cost of the instrumentation itself: the same
   simulate_many workload with spans + metrics off vs on.  The span and
   metric hooks inside the sim driver are one load + branch when
   disabled and a handful of hashtable bumps per call when enabled, so
   the measured overhead must stay well under the 5%% acceptance line. *)
let telemetry_overhead ctx =
  match Experiments.Context.entries ctx with
  | [] -> None
  | e :: _ ->
    let map = Experiments.Context.optimized_map e in
    let trace = Experiments.Context.trace e in
    let configs = Experiments.Table6.configs in
    (* One simulate_many run varies ±20%% on a contended machine — far
       more than the effect under measurement — so interleave off/on
       runs and compare the per-mode minima, which discards scheduler
       and GC noise instead of averaging it in. *)
    let reps = 4 in
    let time_once enabled =
      Obs.Span.set_enabled enabled;
      Obs.Metrics.set_enabled enabled;
      let t0 = Unix.gettimeofday () in
      ignore (Sim.Driver.simulate_many configs map trace);
      Unix.gettimeofday () -. t0
    in
    let spans0 = Obs.Span.enabled () in
    let metrics0 = Obs.Metrics.enabled () in
    ignore (Sim.Driver.simulate_many configs map trace);
    let t_off = ref infinity and t_on = ref infinity in
    for _ = 1 to reps do
      t_off := Float.min !t_off (time_once false);
      t_on := Float.min !t_on (time_once true)
    done;
    Obs.Span.set_enabled spans0;
    Obs.Metrics.set_enabled metrics0;
    let t_off = !t_off and t_on = !t_on in
    let overhead = (t_on -. t_off) /. Float.max t_off 1e-9 in
    say "";
    say
      "=== telemetry overhead (simulate_many, best of %d on %s): off \
       %.3fs vs on %.3fs = %+.1f%% (target < 5%%) ==="
      reps
      (Experiments.Context.name e)
      t_off t_on (100. *. overhead);
    Some (t_off, t_on, overhead)

(* ------------------------------------------------------------------ *)
(* Machine-readable bench report (impact.bench/v1)                     *)
(* ------------------------------------------------------------------ *)

let write_report path ~names ~bench_seconds ~outcomes ~total_seconds
    ~domains ~serial_seconds ~parallel_speedup ~engine ~overhead =
  let num f = Obs.Json.Float f in
  let hits = Obs.Metrics.value Experiments.Context.memo_hits in
  let misses = Obs.Metrics.value Experiments.Context.memo_misses in
  let lookups = hits + misses in
  (* Trace-store gauges (registration is idempotent, so this reads the
     same gauges Sim.Trace bumps on every recording). *)
  let tgauge n = int_of_float (Obs.Metrics.gauge_value (Obs.Metrics.gauge n)) in
  let t_runs = tgauge "trace.runs" in
  let t_raw = tgauge "trace.raw_bytes" in
  let t_stored = tgauge "trace.compressed_bytes" in
  let t_peak = tgauge "trace.peak_resident_bytes" in
  let json =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.String "impact.bench/v1");
        ( "benchmarks",
          match names with
          | None -> Obs.Json.Null
          | Some ns ->
            Obs.Json.List (List.map (fun n -> Obs.Json.String n) ns) );
        ( "pipeline_seconds",
          Obs.Json.Obj (List.map (fun (n, t) -> (n, num t)) bench_seconds) );
        ( "tables",
          Obs.Json.List
            (List.map
               (fun (o : Experiments.Runner.outcome) ->
                 Obs.Json.Obj
                   [
                     ( "id",
                       Obs.Json.String
                         o.Experiments.Runner.spec.Experiments.Runner.id );
                     ( "title",
                       Obs.Json.String
                         o.Experiments.Runner.spec.Experiments.Runner.title );
                     ( "wall_seconds",
                       num o.Experiments.Runner.wall_seconds );
                   ])
               outcomes) );
        ("total_seconds", num total_seconds);
        (* Additive since impact.bench/v1 gained the parallel run:
           [domains] is the -j lane count and the two optional fields
           come from --compare-serial (Null otherwise). *)
        ("domains", Obs.Json.Int domains);
        ( "serial_seconds",
          match serial_seconds with None -> Obs.Json.Null | Some s -> num s );
        ( "parallel_speedup",
          match parallel_speedup with
          | None -> Obs.Json.Null
          | Some s -> num s );
        ( "engine",
          match engine with
          | None -> Obs.Json.Null
          | Some r ->
            Obs.Json.Obj
              [
                ("bench", Obs.Json.String r.engine_bench);
                ("configs", Obs.Json.Int r.engine_configs);
                ("reference_seconds", num r.reference_seconds);
                ("fast_seconds", num r.fast_seconds);
                ("speedup", num r.speedup);
                ("identical", Obs.Json.Bool r.identical);
              ] );
        ( "memo",
          Obs.Json.Obj
            [
              ("hits", Obs.Json.Int hits);
              ("misses", Obs.Json.Int misses);
              ( "hit_rate",
                if lookups = 0 then Obs.Json.Null
                else num (float_of_int hits /. float_of_int lookups) );
            ] );
        (* Additive since the compressed trace store: the workload
           scale factor and the summed trace-store gauges.
           [trace.ratio] is the live compression ratio; peak residency
           IS the stored size, so raw/peak is the peak-memory reduction
           over an 8-byte-per-block buffer. *)
        ("scale", Obs.Json.Int !scale);
        ( "trace",
          Obs.Json.Obj
            [
              ("runs", Obs.Json.Int t_runs);
              ("raw_bytes", Obs.Json.Int t_raw);
              ("stored_bytes", Obs.Json.Int t_stored);
              ("peak_resident_bytes", Obs.Json.Int t_peak);
              ( "ratio",
                if t_stored = 0 then Obs.Json.Null
                else num (float_of_int t_raw /. float_of_int t_stored) );
            ] );
        ( "telemetry_overhead",
          match overhead with
          | None -> Obs.Json.Null
          | Some (off, on_, ratio) ->
            Obs.Json.Obj
              [
                ("off_seconds", num off);
                ("on_seconds", num on_);
                ("overhead_ratio", num ratio);
              ] );
      ]
  in
  Obs.Json.to_file path json;
  say "[bench report written to %s]" path

(* One-line trace-store summary from the Sim.Trace gauges. *)
let trace_store_summary () =
  let g n = int_of_float (Obs.Metrics.gauge_value (Obs.Metrics.gauge n)) in
  let raw = g "trace.raw_bytes" and stored = g "trace.compressed_bytes" in
  let peak = g "trace.peak_resident_bytes" and runs = g "trace.runs" in
  let kb b = float_of_int b /. 1024. in
  if stored > 0 then begin
    say "";
    say
      "=== trace store (scale %d): %d runs, raw %.0f KB -> stored %.0f KB \
       (%.1fx), peak resident %.0f KB ==="
      !scale runs (kb raw) (kb stored)
      (float_of_int raw /. Float.max (float_of_int stored) 1.)
      (kb peak)
  end

(* Trend figures: the Table 6 sweep as sparklines and the 2KB design
   point as a bar chart, natural vs optimized. *)
let figures ctx =
  say "";
  let rows = Experiments.Table6.compute ctx in
  let pct v = Printf.sprintf "%.2f%%" (100. *. v) in
  print_string
    (Report.Chart.sparklines ~format:pct
       ~title:
         "Figure A: miss ratio vs cache size (direct-mapped, 64B blocks, \
          optimized layout; glyph ramp ' .:-=+*#@' scaled to the worst \
          point)"
       ~points:[ "8K"; "4K"; "2K"; "1K"; "0.5K" ]
       (List.map
          (fun (r : Experiments.Sweep.row) ->
            (r.Experiments.Sweep.name,
             List.map (fun c -> c.Experiments.Sweep.miss) r.Experiments.Sweep.cells))
          rows));
  say "";
  let ablation = Experiments.Ablation.compute ctx in
  print_string
    (Report.Chart.bars ~format:pct
       ~title:
         "Figure B: 2KB/64B miss ratio, natural layout (pre-inlining \
          baseline)"
       (List.map
          (fun (r : Experiments.Ablation.row) ->
            (r.Experiments.Ablation.name, r.Experiments.Ablation.baseline))
          ablation));
  say "";
  print_string
    (Report.Chart.bars ~format:pct
       ~title:"Figure C: 2KB/64B miss ratio, full placement pipeline"
       (List.map
          (fun (r : Experiments.Ablation.row) ->
            (r.Experiments.Ablation.name, r.Experiments.Ablation.full))
          ablation))

(* ------------------------------------------------------------------ *)
(* Part 2: bechamel micro-benchmarks                                   *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

(* Small fixed artifacts reused across the micro-benchmarks so each test
   times exactly one pipeline stage. *)
module Fixture = struct
  let bench = Workloads.Registry.find "wc"
  let program = Workloads.Bench.program bench
  let input = Vm.Io.input [ Workloads.Inputs.text ~seed:1 ~bytes:4_000 ]
  let profile = Vm.Profile.profile program [ input ]
  let trace = Sim.Trace.record program input
  let natural = Placement.Address_map.natural program

  let selections =
    Array.mapi
      (fun fid f ->
        Placement.Trace_select.select f
          (Placement.Weight.cfg_of_profile profile fid))
      program.Ir.Prog.funcs

  let layouts =
    Array.mapi
      (fun fid f ->
        Placement.Func_layout.layout f
          (Placement.Weight.cfg_of_profile profile fid)
          selections.(fid))
      program.Ir.Prog.funcs

  let global =
    Placement.Global_layout.layout
      (Array.length program.Ir.Prog.funcs)
      ~entry:program.Ir.Prog.entry
      (Placement.Weight.call_of_profile profile)

  let optimized = Placement.Address_map.build program ~layouts ~order:global

  let simulate config map =
    ignore (Sim.Driver.simulate config map trace)
end


let tests =
  [
    (* Table 1: baseline lookup. *)
    Test.make ~name:"t1_smith_lookup"
      (Staged.stage (fun () ->
           ignore
             (Experiments.Paper.smith_miss_ratio ~cache_size:2048
                ~block_size:64)));
    (* Table 2: execution profiling. *)
    Test.make ~name:"t2_profile_run"
      (Staged.stage (fun () ->
           ignore (Vm.Profile.profile Fixture.program [ Fixture.input ])));
    (* Table 3: inline expansion. *)
    Test.make ~name:"t3_inline_expand"
      (Staged.stage (fun () ->
           ignore
             (Placement.Inline.expand_once Placement.Inline.default_config
                ~budget:max_int Fixture.program Fixture.profile)));
    (* Table 4: trace selection over every function. *)
    Test.make ~name:"t4_trace_selection"
      (Staged.stage (fun () ->
           Array.iteri
             (fun fid f ->
               ignore
                 (Placement.Trace_select.select f
                    (Placement.Weight.cfg_of_profile Fixture.profile fid)))
             Fixture.program.Ir.Prog.funcs));
    (* Table 5: function + global layout and address assignment. *)
    Test.make ~name:"t5_layout_and_map"
      (Staged.stage (fun () ->
           let layouts =
             Array.mapi
               (fun fid f ->
                 Placement.Func_layout.layout f
                   (Placement.Weight.cfg_of_profile Fixture.profile fid)
                   Fixture.selections.(fid))
               Fixture.program.Ir.Prog.funcs
           in
           ignore
             (Placement.Address_map.build Fixture.program ~layouts
                ~order:Fixture.global)));
    (* Table 6: whole-block direct-mapped simulation. *)
    Test.make ~name:"t6_sim_direct_2k_64"
      (Staged.stage (fun () ->
           Fixture.simulate (Icache.Config.make ~size:2048 ~block:64 ())
             Fixture.optimized));
    (* The same design point through the block-granular fast path. *)
    Test.make ~name:"t6_sim_many_1cfg"
      (Staged.stage (fun () ->
           ignore
             (Sim.Driver.simulate_many
                [ Icache.Config.make ~size:2048 ~block:64 () ]
                Fixture.optimized Fixture.trace)));
    (* All five Table 6 sizes in one single-pass trace walk. *)
    Test.make ~name:"t6_sim_many_5cfg"
      (Staged.stage (fun () ->
           ignore
             (Sim.Driver.simulate_many Experiments.Table6.configs
                Fixture.optimized Fixture.trace)));
    (* Table 7: small-block simulation. *)
    Test.make ~name:"t7_sim_direct_2k_16"
      (Staged.stage (fun () ->
           Fixture.simulate (Icache.Config.make ~size:2048 ~block:16 ())
             Fixture.optimized));
    (* Table 8: sectored and partial fills. *)
    Test.make ~name:"t8_sim_sectored"
      (Staged.stage (fun () ->
           Fixture.simulate
             (Icache.Config.make ~size:2048 ~block:64
                ~fill:(Icache.Config.Sectored 8) ())
             Fixture.optimized));
    Test.make ~name:"t8_sim_partial"
      (Staged.stage (fun () ->
           Fixture.simulate
             (Icache.Config.make ~size:2048 ~block:64
                ~fill:Icache.Config.Partial ())
             Fixture.optimized));
    (* Table 9: code scaling + re-layout. *)
    Test.make ~name:"t9_scale_and_map"
      (Staged.stage (fun () ->
           let scaled = Ir.Prog.scale_code 0.7 Fixture.program in
           let layouts =
             Array.mapi
               (fun fid f ->
                 Placement.Func_layout.layout f
                   (Placement.Weight.cfg_of_profile Fixture.profile fid)
                   Fixture.selections.(fid))
               scaled.Ir.Prog.funcs
           in
           ignore
             (Placement.Address_map.build scaled ~layouts
                ~order:Fixture.global)));
    (* Comparison: fully associative LRU baseline. *)
    Test.make ~name:"t10_sim_full_assoc"
      (Staged.stage (fun () ->
           Fixture.simulate
             (Icache.Config.make ~size:2048 ~block:64
                ~assoc:Icache.Config.Full ())
             Fixture.natural));
    (* Timing ablation: simulation including the three timing models. *)
    Test.make ~name:"t11_sim_with_timing"
      (Staged.stage (fun () ->
           Fixture.simulate
             (Icache.Config.make ~size:2048 ~block:64
                ~fill:Icache.Config.Partial ())
             Fixture.optimized));
  ]

let run_microbenchmarks () =
  say "";
  say "=== bechamel micro-benchmarks (one per table) ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false
      ~kde:(Some 1000) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ time ] ->
            let label =
              if time > 1e9 then Printf.sprintf "%8.2f s " (time /. 1e9)
              else if time > 1e6 then Printf.sprintf "%8.2f ms" (time /. 1e6)
              else if time > 1e3 then Printf.sprintf "%8.2f us" (time /. 1e3)
              else Printf.sprintf "%8.2f ns" time
            in
            say "  %-24s %s/run" name label
          | Some _ | None -> say "  %-24s (no estimate)" name)
        results)
    tests

let () =
  parse_cli ();
  (* Metrics stay on for the whole run so the report can carry the memo
     hit rate; spans stay off (the overhead probe toggles them). *)
  Obs.Metrics.set_enabled true;
  let specs =
    match !only_ids with
    | None -> Experiments.Runner.all
    | Some ids -> (
      try List.map Experiments.Runner.find ids
      with Experiments.Runner.Unknown_experiment id ->
        Printf.eprintf "error: unknown table id %S (valid: %s)\n" id
          (String.concat ","
             (List.map
                (fun s -> "t" ^ s.Experiments.Runner.id)
                Experiments.Runner.all));
        exit 2)
  in
  (match !bench_names with
  | None -> ()
  | Some ns ->
    List.iter
      (fun n ->
        if not (List.mem n Workloads.Registry.names) then begin
          Printf.eprintf "error: unknown benchmark %S (valid: %s)\n" n
            (String.concat "," Workloads.Registry.names);
          exit 2
        end)
      ns);
  (* The serial reference runs before the default pool exists; the
     normal pass then runs under -j N (a 1-lane run never builds a
     pool, keeping the serial path byte for byte). *)
  let serial =
    if !compare_serial then Some (serial_reference specs !bench_names)
    else None
  in
  let pool = if !jobs > 1 then Some (Placement.Pool.create !jobs) else None in
  Placement.Pool.set_default pool;
  Fun.protect
    ~finally:(fun () ->
      Placement.Pool.set_default None;
      Option.iter Placement.Pool.shutdown pool)
  @@ fun () ->
  say "";
  say "=== running with -j %d (%s) ===" !jobs
    (if !jobs > 1 then "domain pool" else "serial path");
  let t_run0 = Unix.gettimeofday () in
  let ctx, bench_seconds, outcomes, table_seconds =
    regenerate_tables specs !bench_names
  in
  let serial_seconds, parallel_speedup =
    match serial with
    | None -> (None, None)
    | Some (serial_outcomes, serial_secs) ->
      assert_identical_tables serial_outcomes outcomes;
      let speedup = serial_secs /. Float.max table_seconds 1e-9 in
      say "=== parallel speedup: serial %.1fs / -j %d %.1fs = %.2fx ==="
        serial_secs !jobs table_seconds speedup;
      (Some serial_secs, Some speedup)
  in
  (* Figures and micro-benchmarks belong to the full run; a filtered run
     (CI smoke, iteration) stops after its tables.  The engine-speedup
     and telemetry-overhead lines are always printed. *)
  if !only_ids = None then figures ctx;
  trace_store_summary ();
  let engine = engine_speedup ctx in
  let overhead = telemetry_overhead ctx in
  if !only_ids = None then run_microbenchmarks ();
  if !out_file <> "" then
    write_report !out_file ~names:!bench_names ~bench_seconds ~outcomes
      ~total_seconds:(Unix.gettimeofday () -. t_run0)
      ~domains:!jobs ~serial_seconds ~parallel_speedup ~engine ~overhead;
  say "";
  say "done."
