(* Run every experiment in paper order. *)

type spec = {
  id : string;
  title : string;
  table : Context.t -> Report.Table.t;
}

let all : spec list =
  [
    { id = "1"; title = "Smith design targets"; table = (fun _ -> Table1.table ()) };
    { id = "2"; title = "Profile results"; table = Table2.table };
    { id = "3"; title = "Inline expansion"; table = Table3.table };
    { id = "4"; title = "Trace selection"; table = Table4.table };
    { id = "5"; title = "Static/dynamic code sizes"; table = Table5.table };
    { id = "6"; title = "Cache size sweep"; table = Table6.table };
    { id = "7"; title = "Block size sweep"; table = Table7.table };
    { id = "8"; title = "Sectoring and partial loading"; table = Table8.table };
    { id = "9"; title = "Code scaling"; table = Table9.table };
    { id = "10"; title = "Comparison with previous results"; table = Comparison.table };
    { id = "11"; title = "Miss-penalty timing ablation"; table = Timing_exp.table };
    { id = "12"; title = "Inline-vs-layout ablation"; table = Ablation.table };
    { id = "13"; title = "Instruction paging"; table = Paging_exp.table };
    { id = "14"; title = "Analytical estimation vs simulation"; table = Estimate_exp.table };
    { id = "15"; title = "Associativity sweep"; table = Assoc_exp.table };
    { id = "16"; title = "Next-line prefetch ablation"; table = Prefetch_exp.table };
    { id = "17"; title = "Layout strategy comparison"; table = Strategy_exp.table };
    (* E18 is the streaming/compressed-trace infrastructure study in
       EXPERIMENTS.md; it has no table of its own. *)
    { id = "19"; title = "Static cache bounds vs simulation"; table = Absint_exp.table };
  ]

exception Unknown_experiment of string

(* Mnemonic aliases accepted anywhere an experiment id is. *)
let aliases =
  [
    ("strategy-comparison", "17");
    ("strategies", "17");
    ("comparison", "10");
    ("absint", "19");
    ("bounds", "19");
  ]

let find id =
  let id =
    match List.assoc_opt id aliases with Some id -> id | None -> id
  in
  match List.find_opt (fun s -> s.id = id) all with
  | Some s -> s
  | None -> raise (Unknown_experiment id)

(* One regenerated table with its provenance: the structured rows (for
   machine-readable reports), the wall time, and the degradation
   warnings first recorded while it was built.  Warnings themselves are
   surfaced the moment they occur through [Obs.Log] (see
   [Context.strategy_map]) — they used to be appended to the rendered
   table body, which delayed them until the table flushed. *)
type outcome = {
  spec : spec;
  table : Report.Table.t;
  wall_seconds : float;
  fresh_warnings : Ir.Diag.t list;
      (* warnings newly recorded while this table was built *)
}

let run_spec ctx spec =
  let counts () =
    List.map
      (fun e -> List.length (Context.warnings e))
      (Context.entries ctx)
  in
  let before = counts () in
  let t0 = Obs.Clock.now () in
  let table =
    Obs.Span.with_ ~stage:"table"
      ~attrs:[ ("id", spec.id); ("title", spec.title) ]
      (fun () -> spec.table ctx)
  in
  let wall_seconds = Obs.Clock.now () -. t0 in
  let fresh_warnings =
    List.concat
      (List.map2
         (fun e n -> List.filteri (fun i _ -> i >= n) (Context.warnings e))
         (Context.entries ctx) before)
  in
  { spec; table; wall_seconds; fresh_warnings }

let run_one ctx spec = Report.Table.render (run_spec ctx spec).table

(* Trend figures: the Table 6 sweep as sparklines and the 2KB design
   point as a bar chart, natural vs optimized. *)
let figures ctx =
  let rows = Table6.compute ctx in
  let pct v = Printf.sprintf "%.2f%%" (100. *. v) in
  let ablation = Ablation.compute ctx in
  String.concat "\n"
    [
      Report.Chart.sparklines ~format:pct
        ~title:
          "Figure A: miss ratio vs cache size (direct-mapped, 64B blocks, \
           optimized layout; glyph ramp ' .:-=+*#@' scaled to the worst \
           point)"
        ~points:[ "8K"; "4K"; "2K"; "1K"; "0.5K" ]
        (List.map
           (fun (r : Sweep.row) ->
             (r.Sweep.name, List.map (fun c -> c.Sweep.miss) r.Sweep.cells))
           rows);
      Report.Chart.bars ~format:pct
        ~title:
          "Figure B: 2KB/64B miss ratio, natural layout (pre-inlining \
           baseline)"
        (List.map
           (fun (r : Ablation.row) -> (r.Ablation.name, r.Ablation.baseline))
           ablation);
      Report.Chart.bars ~format:pct
        ~title:"Figure C: 2KB/64B miss ratio, full placement pipeline"
        (List.map
           (fun (r : Ablation.row) -> (r.Ablation.name, r.Ablation.full))
           ablation);
    ]
