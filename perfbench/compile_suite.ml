(* compile-suite: the front end every CLI call and test suite pays.  For
   each of the ten programs, serially and at scale 1: the placement
   pipeline on its profiling inputs, the address map of every registered
   strategy, and a lint (absint pass included) of each map.  VM
   profiling and the inliner do nearly all the work; no cache is
   simulated. *)

open Harness

let lint_cache = Icache.Config.make ~size:2048 ~block:64 ()

type subject = {
  bench : Workloads.Bench.t;
  program : Ir.Prog.program;
  inputs : Vm.Io.input list;
  trace_input : Vm.Io.input;
}

type compiled = {
  subject : subject;
  pipe : Placement.Pipeline.t;
  maps : (Placement.Strategy.t * Placement.Address_map.t) list;
  certified : Analysis.Absint.interval;  (** of the impact map *)
}

let name s = s.bench.Workloads.Bench.name

(* Set-up is the workloads layer: building each program and generating
   its inputs (lazy in the registry, so forced here, outside timing). *)
let setup () =
  List.map
    (fun b ->
      {
        bench = b;
        program = Workloads.Bench.program b;
        inputs = Workloads.Bench.profile_inputs b;
        trace_input = Workloads.Bench.trace_input b;
      })
    Workloads.Registry.all

let compile s =
  let pipe =
    span "pipeline"
      ~attrs:[ ("bench", name s) ]
      (fun () -> Placement.Pipeline.run s.program ~inputs:s.inputs)
  in
  let maps =
    List.map
      (fun st ->
        (st, span "map_for" (fun () -> Placement.Pipeline.map_for pipe st)))
      Placement.Strategy.all
  in
  let reports =
    List.map
      (fun ((st : Placement.Strategy.t), map) ->
        ( st.id,
          span "lint" (fun () ->
              Analysis.Lint.run
                (Analysis.Lint.of_pipeline ~strategy:st.id pipe ~map
                   ~config:lint_cache)) ))
      maps
  in
  let impact = List.assoc Placement.Strategy.impact.id reports in
  { subject = s; pipe; maps; certified = impact.Analysis.Lint.certified }

(* The timed units: one program's compile each. *)
let units subjects = List.map (fun s () -> compile s) subjects

(* Output checks, outside timing: every stage artifact validates at
   [Full], every strategy map is a valid placement, and the inlined
   program computes what the original does on the held-out input. *)
let check c =
  let p = c.pipe in
  let weights = Placement.Weight.cfg_of_profile p.Placement.Pipeline.profile in
  let diags =
    Ir.Diag.errors
      (Placement.Validate.pipeline ~level:Placement.Validate.Full p
      @ List.concat_map
          (fun (strategy, map) ->
            Placement.Validate.map ~strategy ~program:p.program ~weights map)
          c.maps)
  in
  let run prog = Vm.Interp.run prog c.subject.trace_input in
  let want = run c.subject.program and got = run p.program in
  let outputs (r : Vm.Interp.result) =
    (r.return_value, List.init Vm.Io.max_streams (Vm.Io.output r.io))
  in
  let problems =
    List.map Ir.Diag.to_string diags
    @ (if outputs want = outputs got then []
       else [ "inlined program output differs from the original's" ])
  in
  List.iter (fun m -> info "FAILED %s: %s" (name c.subject) m) problems;
  problems = []

let profile_minsn compiled =
  List.fold_left
    (fun acc c ->
      acc
      + c.pipe.Placement.Pipeline.original_profile.Vm.Profile.dyn_insns
      + c.pipe.profile.dyn_insns)
    0 compiled
  |> fun n -> float_of_int n /. 1e6

let layer_of (e : Obs.Span.event) =
  match e.name with
  | "profile" -> Some "vm.profile_s"
  | "inline" -> Some "placement.inline_s"
  | "simplify" -> Some "ir.simplify_s"
  | "trace-selection" | "func-layout" | "global-layout" | "address-map" ->
      Some "placement.layout_s"
  | "strategy-layout" | "perfbench.map_for" -> Some "placement.strategy_layout_s"
  | "lint.absint" -> Some "analysis.absint_s"
  | "perfbench.lint" -> Some "analysis.lint_s"
  | n when String.starts_with ~prefix:"lint." n -> Some "analysis.lint_s"
  | _ -> None

let layer_metrics =
  [
    "vm.profile_s";
    "placement.inline_s";
    "ir.simplify_s";
    "placement.layout_s";
    "placement.strategy_layout_s";
    "analysis.lint_s";
    "analysis.absint_s";
  ]

(* Instructions per second of the bare interpreter and of the profiling
   observer, on yacc's original program and profiling inputs. *)
let calibrate compiled =
  let c = List.find (fun c -> name c.subject = "yacc") compiled in
  let prog = c.pipe.Placement.Pipeline.original and inputs = c.subject.inputs in
  let rate f =
    Stats.median
      (List.init 3 (fun _ ->
           let insns, dt = time f in
           float_of_int insns /. dt /. 1e6))
  in
  let null () =
    List.fold_left
      (fun acc i -> acc + (Vm.Interp.run prog i).Vm.Interp.dyn_insns)
      0 inputs
  in
  let profiled () = (Vm.Profile.profile prog inputs).Vm.Profile.dyn_insns in
  (rate null, rate profiled)

(* Certified upper bound on the impact layouts' miss ratio over the
   suite: the layout quality this workload can see without simulating. *)
let impact_miss_pct certified =
  let hi, fetches =
    List.fold_left
      (fun (hi, f) (c : Analysis.Absint.interval) -> (hi + c.hi, f + c.fetches))
      (0, 0) certified
  in
  pct (float_of_int hi) (float_of_int fetches)

(* The set-up time alone, for a fresh process to report. *)
let setup_s () = snd (time setup)

(* The programs run in the registry's order whatever the seed: the order
   changes no output and no amount of work, only the heap's history,
   and with it the peak memory (37.5-48.9 MB over seeded orders, against
   ±1 MB between runs of one order). *)
let run ~seed:_ ~seconds ~trace =
  let subjects, setup_s = time setup in
  (* The set-up fills the registry's lazy caches, so four fresh
     processes repeat it for a median of five. *)
  let setup_s = Stats.median (setup_s :: setup_in_children ~workload:"compile-suite" 4) in
  info "order %s" (String.concat "," (List.map name subjects));
  let ts, refs =
    timed_units ~lanes:1
      ~seconds:(if trace then seconds /. 2. else seconds)
      ~keep:(fun c -> (check c, c.certified))
      (units subjects)
  in
  round_info "compile" ts refs;
  let failed = List.length (List.filter (fun t -> not (fst t.result)) ts) in
  let work_s = round_s ts in
  let metrics =
    if not trace then
      [
        ("setup_s", setup_s);
        ("peak_rss_mb", peak_rss_mb "self");
        ("work_norm", work_s /. mean refs);
        ("impact_miss_pct", impact_miss_pct (List.map (fun t -> snd t.result) ts));
      ]
    else begin
      let dataflow = Obs.Metrics.counter "analysis.dataflow_iterations" in
      let (compiled_t, traced_s), events =
        traced (fun () -> time (fun () -> List.map compile subjects))
      in
      let iterations = float_of_int (Obs.Metrics.value dataflow) in
      let totals = attribute ~key:layer_of events in
      info "traced pass %.3f s, layer self times cover %.1f%%" traced_s
        (pct (sum_of (List.map fst totals) totals) traced_s);
      let per_bench =
        List.filter_map
          (fun (e : Obs.Span.event) ->
            if e.name = "perfbench.pipeline" then
              Some ("placement.pipeline_s." ^ List.assoc "bench" e.attrs, e.dur_us /. 1e6)
            else None)
          events
      in
      let null_rate, profiled_rate = calibrate compiled_t in
      List.map (fun k -> (k, sum_of [ k ] totals)) layer_metrics
      @ per_bench
      @ [
          ("vm.profile_minsn", profile_minsn compiled_t);
          ( "placement.sites_inlined",
            float_of_int
              (List.fold_left
                 (fun acc c ->
                   acc + c.pipe.Placement.Pipeline.inline_report.sites_inlined)
                 0 compiled_t) );
          ("analysis.dataflow_iterations", iterations);
          ("vm.null_minsn_per_s", null_rate);
          ("vm.profiled_minsn_per_s", profiled_rate);
          ("obs.trace_overhead_pct", pct (traced_s -. work_s) work_s);
          ("host.work_s", work_s);
          ("host.reference_ms", 1000. *. mean refs);
        ]
    end
  in
  {
    attempted = List.fold_left (fun acc t -> acc + List.length t.secs) 0 ts;
    failed;
    metrics;
  }
