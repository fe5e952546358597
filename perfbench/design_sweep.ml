(* design-sweep: the paper's cache design space replayed over stored
   traces.  Set-up builds the pipelines of cccp and wc and records each
   one's streaming trace; the timed part replays every trace under the
   impact and natural maps with one [Sim.Driver.simulate_many] call per
   design axis.  wc fits every cache (hit path only) while cccp misses,
   so both the hit and the miss path of the simulator are exercised;
   the VM and placement layers do no timed work.  yacc, which misses
   too, is left out: its pipeline alone made set-up take 13-17 s of
   every run.  Everything runs on a two-lane pool (nproc): the set-ups
   side by side, and each call's configurations split across the
   lanes. *)

open Harness

let benches = [ "cccp"; "wc" ]
let lanes = 2
let mk = Icache.Config.make

(* One call per axis, each varying one parameter of the 2 KB / 64 B
   direct-mapped whole-block base design. *)
let axes =
  [
    ("size", List.map (fun size -> mk ~size ~block:64 ()) [ 512; 2048; 8192 ]);
    ("block", List.map (fun block -> mk ~size:2048 ~block ()) [ 16; 32 ]);
    ( "fill",
      [
        mk ~fill:(Icache.Config.Sectored 8) ~size:2048 ~block:64 ();
        mk ~fill:Icache.Config.Partial ~size:2048 ~block:64 ();
      ] );
    ( "assoc",
      [
        mk ~assoc:(Icache.Config.Ways 2) ~size:2048 ~block:64 ();
        mk ~assoc:Icache.Config.Full ~size:2048 ~block:64 ();
      ] );
    ("prefetch", [ mk ~prefetch:true ~size:2048 ~block:64 () ]);
  ]

type subject = {
  name : string;
  trace : Sim.Trace.t;
  maps : (string * Placement.Address_map.t) list;
}

let setup pool () =
  Placement.Pool.map pool
    (fun name ->
      let b = Workloads.Registry.find name in
      let pipe =
        span "pipeline"
          ~attrs:[ ("bench", name) ]
          (fun () ->
            Placement.Pipeline.run (Workloads.Bench.program b)
              ~inputs:(Workloads.Bench.profile_inputs b))
      in
      let trace =
        span "record" (fun () ->
            Sim.Trace.record pipe.program (Workloads.Bench.trace_input b))
      in
      {
        name;
        trace;
        maps = [ ("impact", pipe.optimized); ("natural", pipe.natural) ];
      })
    benches

type call = { subject : subject; map_name : string; axis : string }

let calls subjects =
  List.concat_map
    (fun s ->
      List.concat_map
        (fun (map_name, _) ->
          List.map (fun (axis, _) -> { subject = s; map_name; axis }) axes)
        s.maps)
    subjects

let simulate c =
  span "simulate"
    ~attrs:[ ("axis", c.axis) ]
    (fun () ->
      Sim.Driver.simulate_many (List.assoc c.axis axes)
        (List.assoc c.map_name c.subject.maps)
        c.subject.trace)

let pass order () = List.map (fun c -> (c, simulate c)) order

(* The timed units: one call each, in the given order. *)
let units order = List.map (fun c () -> simulate c) order

let totals ?map_name results =
  List.fold_left
    (fun (acc, miss) (c, rs) ->
      if Option.fold ~none:true ~some:(( = ) c.map_name) map_name then
        List.fold_left
          (fun (acc, miss) (r : Sim.Driver.result) ->
            (acc + r.accesses, miss + r.misses))
          (acc, miss) rs
      else (acc, miss))
    (0, 0) results

(* One design point per (bench, map), chosen by the seed, re-simulated
   by the word-granular reference engine and compared field by field. *)
let check pool st subjects results =
  let points =
    List.concat_map
      (fun s ->
        List.map
          (fun (map_name, map) ->
            let mine =
              List.concat_map
                (fun (c, rs) ->
                  if c.subject.name = s.name && c.map_name = map_name then
                    List.combine (List.assoc c.axis axes) rs
                  else [])
                results
            in
            (s, map_name, map, List.nth mine (Random.State.int st (List.length mine))))
          s.maps)
      subjects
  in
  Placement.Pool.map pool
    (fun (s, map_name, map, (config, got)) ->
      let ok = Sim.Driver.simulate config map s.trace = got in
      if not ok then
        info "FAILED %s/%s at %s: differs from the word-granular engine" s.name
          map_name (Icache.Config.describe config);
      ok)
    points

(* Wall time of the calls per axis, from the benchmark's own spans: the
   calls run across both lanes, so their self time is their duration. *)
let axis_seconds events =
  List.map
    (fun (axis, _) ->
      ( "sim.simulate_s." ^ axis,
        List.fold_left
          (fun acc (e : Obs.Span.event) ->
            if e.name = "perfbench.simulate" && List.assoc "axis" e.attrs = axis
            then acc +. (e.dur_us /. 1e6)
            else acc)
          0. events ))
    axes

let decode_rate subjects =
  let blocks =
    List.fold_left (fun acc s -> acc + Sim.Trace.dyn_blocks s.trace) 0 subjects
  in
  Stats.median
    (List.init 3 (fun _ ->
         let (), dt =
           time (fun () ->
               List.iter
                 (fun s -> Sim.Trace.iter_blocks (fun _ _ -> ()) s.trace)
                 subjects)
         in
         float_of_int blocks /. dt /. 1e6))

let run ~seed ~seconds ~trace =
  let pool = Placement.Pool.create lanes in
  Placement.Pool.set_default (Some pool);
  Fun.protect
    ~finally:(fun () ->
      Placement.Pool.set_default None;
      Placement.Pool.shutdown pool)
  @@ fun () ->
  let st = Random.State.make [| seed |] in
  let (subjects, setup_s), setup_events =
    if trace then traced (fun () -> time (setup pool)) else (time (setup pool), [])
  in
  let order = shuffle st (calls subjects) in
  let ts, refs =
    timed_units ~lanes
      ~seconds:(if trace then seconds /. 2. else seconds)
      ~keep:Fun.id (units order)
  in
  round_info "sweep" ts refs;
  let results = List.map2 (fun c t -> (c, t.result)) order ts in
  let checks = check pool st subjects results in
  let failed = List.length (List.filter not checks) in
  let work_s = round_s ts in
  let metrics =
    if not trace then
      let accesses, misses = totals ~map_name:"impact" results in
      [
        ("setup_s", setup_s);
        ("peak_rss_mb", peak_rss_mb "self");
        ("work_norm", work_s /. mean refs);
        ("impact_miss_pct", pct (float_of_int misses) (float_of_int accesses));
      ]
    else begin
      let (results_t, traced_s), events = traced (fun () -> time (pass order)) in
      let layers = axis_seconds events in
      let sim_s = sum_of (List.map fst layers) layers in
      info "traced pass %.3f s, sim.simulate_s.* cover %.1f%%" traced_s
        (pct sim_s traced_s);
      let steps =
        List.fold_left
          (fun acc (c, rs) ->
            acc + (Sim.Trace.dyn_blocks c.subject.trace * List.length rs))
          0 results_t
      in
      let accesses, misses = totals results_t in
      let stats = List.map (fun s -> Sim.Trace.stats s.trace) subjects in
      let sum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 stats) in
      let record_s =
        List.fold_left
          (fun acc (e : Obs.Span.event) ->
            if e.name = "perfbench.record" then acc +. (e.dur_us /. 1e6) else acc)
          0. setup_events
      in
      layers
      @ [
          ("sim.block_configs_per_s", float_of_int steps /. sim_s);
          ("sim.decode_mblocks_per_s", decode_rate subjects);
          ("sim.accesses", float_of_int accesses);
          ("icache.misses", float_of_int misses);
          ("sim.record_s", record_s);
          ("sim.trace_stored_mb", sum (fun s -> s.Sim.Trace.st_stored_bytes) /. 1e6);
          ( "sim.trace_ratio",
            sum (fun s -> s.Sim.Trace.st_raw_bytes)
            /. sum (fun s -> s.Sim.Trace.st_stored_bytes) );
          ("obs.trace_overhead_pct", pct (traced_s -. work_s) work_s);
          ("host.work_s", work_s);
          ("host.reference_ms", 1000. *. mean refs);
        ]
    end
  in
  {
    attempted =
      List.fold_left (fun acc t -> acc + List.length t.secs) 0 ts + List.length checks;
    failed;
    metrics;
  }
