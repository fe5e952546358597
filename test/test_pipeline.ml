(* End-to-end pipeline tests on real workloads with small inputs. *)

let small_inputs = function
  | "wc" -> [ Vm.Io.input [ "lorem ipsum dolor\nsit amet\n" ] ]
  | "grep" ->
    [ Vm.Io.input [ "alpha beta\ngamma\nbeta again\n"; "beta\n" ] ]
  | "yacc" -> [ Vm.Io.input [ "1+2;3*4;(5-2)*7;" ] ]
  | "compress" -> [ Vm.Io.input [ "abababababcdcdcdcdab" ] ]
  | name -> Alcotest.failf "no small input for %s" name

let run_pipeline name =
  let b = Workloads.Registry.find name in
  Placement.Pipeline.run (Workloads.Bench.program b)
    ~inputs:(small_inputs name)

let structural_invariants () =
  List.iter
    (fun name ->
      let p = run_pipeline name in
      Ir.Check.program p.Placement.Pipeline.program;
      Alcotest.(check bool) (name ^ ": optimized map disjoint") true
        (Placement.Address_map.is_disjoint p.Placement.Pipeline.optimized);
      Alcotest.(check bool) (name ^ ": global order is a permutation") true
        (Placement.Global_layout.is_permutation p.Placement.Pipeline.global
           (Array.length p.Placement.Pipeline.program.Ir.Prog.funcs));
      Array.iteri
        (fun fid sel ->
          let f = p.Placement.Pipeline.program.Ir.Prog.funcs.(fid) in
          let n = Array.length f.Ir.Prog.blocks in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s traces partition" name f.Ir.Prog.name)
            true
            (Placement.Trace_select.is_partition sel n);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s layout permutes" name f.Ir.Prog.name)
            true
            (Placement.Func_layout.is_permutation
               p.Placement.Pipeline.layouts.(fid)
               n))
        p.Placement.Pipeline.selections)
    [ "wc"; "grep"; "yacc"; "compress" ]

let semantics_preserved () =
  List.iter
    (fun name ->
      let b = Workloads.Registry.find name in
      let original = Workloads.Bench.program b in
      let p = run_pipeline name in
      List.iter
        (fun input ->
          let before = Vm.Interp.run original input in
          let after = Vm.Interp.run p.Placement.Pipeline.program input in
          Alcotest.(check int) (name ^ ": return") before.Vm.Interp.return_value
            after.Vm.Interp.return_value;
          Alcotest.(check string) (name ^ ": output")
            (Vm.Io.output before.Vm.Interp.io 0)
            (Vm.Io.output after.Vm.Interp.io 0))
        (small_inputs name))
    [ "wc"; "grep"; "yacc"; "compress" ]

let effective_region_is_executed () =
  (* Every block executed on a profiling input must fall inside the
     effective region; equivalently, no executed block may be placed past
     effective_bytes. *)
  let p = run_pipeline "grep" in
  let map = p.Placement.Pipeline.optimized in
  let trace =
    Sim.Trace_gen.record p.Placement.Pipeline.program
      (List.hd (small_inputs "grep"))
  in
  Sim.Trace_gen.iter_blocks
    (fun fid label ->
      let addr = map.Placement.Address_map.block_addr.(fid).(label) in
      if addr >= map.Placement.Address_map.effective_bytes then
        Alcotest.failf "executed block %d/%d at %d beyond effective %d" fid
          label addr map.Placement.Address_map.effective_bytes)
    trace

let optimized_not_worse () =
  (* On the profiling input itself, the optimized layout should not miss
     more than the natural layout of the same program (2KB/64B direct). *)
  List.iter
    (fun name ->
      let p = run_pipeline name in
      let trace =
        Sim.Trace.of_gen
          (Sim.Trace_gen.record p.Placement.Pipeline.program
             (List.hd (small_inputs name)))
      in
      let config = Icache.Config.make ~size:2048 ~block:64 () in
      let opt =
        Sim.Driver.simulate config p.Placement.Pipeline.optimized trace
      in
      let nat =
        Sim.Driver.simulate config p.Placement.Pipeline.natural trace
      in
      Alcotest.(check bool)
        (name ^ ": optimized misses <= natural misses") true
        (opt.Sim.Driver.misses <= nat.Sim.Driver.misses))
    [ "wc"; "grep"; "compress" ]

let ablation_no_inline () =
  let b = Workloads.Registry.find "wc" in
  let config =
    { Placement.Pipeline.default_config with do_inline = false }
  in
  let p =
    Placement.Pipeline.run ~config (Workloads.Bench.program b)
      ~inputs:(small_inputs "wc")
  in
  Alcotest.(check int) "no sites inlined" 0
    p.Placement.Pipeline.inline_report.Placement.Inline.sites_inlined;
  Alcotest.(check bool) "program unchanged" true
    (p.Placement.Pipeline.program == p.Placement.Pipeline.original)

(* Every registry benchmark through the pipeline on its real profiling
   inputs, with the number of profile passes each run made.  Shared by
   the two tests below. *)
let registry_pipelines =
  lazy
    (let passes = Obs.Metrics.counter "pipeline.profile_passes" in
     let was_enabled = Obs.Metrics.enabled () in
     Obs.Metrics.set_enabled true;
     Fun.protect
       ~finally:(fun () -> Obs.Metrics.set_enabled was_enabled)
       (fun () ->
         List.map
           (fun b ->
             let before = Obs.Metrics.value passes in
             let inputs = Workloads.Bench.profile_inputs b in
             let p = Placement.Pipeline.run (Workloads.Bench.program b) ~inputs in
             (b, inputs, p, Obs.Metrics.value passes - before))
           Workloads.Registry.all))

(* One pass for the original program, one per inlining round that
   changed it, and none that repeats a profile already in hand. *)
let profile_passes_pinned () =
  let got =
    List.map
      (fun (b, _, _, n) -> (b.Workloads.Bench.name, n))
      (Lazy.force registry_pipelines)
  in
  Alcotest.(check (list (pair string int)))
    "profile passes per benchmark"
    [
      ("cccp", 4); ("cmp", 1); ("compress", 2); ("grep", 4); ("lex", 4);
      ("make", 3); ("tee", 1); ("tar", 2); ("wc", 2); ("yacc", 4);
    ]
    got;
  Alcotest.(check int) "suite total" 27
    (List.fold_left (fun acc (_, n) -> acc + n) 0 got)

(* A reused profile is indistinguishable from a fresh pass over the
   shipped program: every counter the accessors expose, and the totals. *)
let reused_profile_is_fresh () =
  List.iter
    (fun (b, inputs, (p : Placement.Pipeline.t), _) ->
      let name = b.Workloads.Bench.name in
      let got = p.profile in
      let fresh = Vm.Profile.profile p.program inputs in
      let check what = Alcotest.(check int) (name ^ ": " ^ what) in
      check "runs" fresh.runs got.runs;
      check "dyn_insns" fresh.dyn_insns got.dyn_insns;
      check "dyn_blocks" fresh.dyn_blocks got.dyn_blocks;
      check "dyn_calls" fresh.dyn_calls got.dyn_calls;
      check "dyn_branches" fresh.dyn_branches got.dyn_branches;
      Array.iteri
        (fun fid (f : Ir.Prog.func) ->
          let same what get =
            if get fresh <> get got then
              Alcotest.failf "%s: f%d %s differs from a fresh profile" name
                fid what
          in
          same "func_weight" (fun pr -> Vm.Profile.func_weight pr fid);
          same "call sites" (fun pr -> Vm.Profile.call_sites_of pr fid);
          Array.iteri
            (fun l _ ->
              same (Printf.sprintf "b%d weight" l) (fun pr ->
                  Vm.Profile.block_weight pr fid l);
              same (Printf.sprintf "b%d out_arcs" l) (fun pr ->
                  Vm.Profile.out_arcs pr fid l))
            f.blocks)
        p.program.funcs)
    (Lazy.force registry_pipelines)

let suite =
  [
    Alcotest.test_case "structural invariants" `Quick structural_invariants;
    Alcotest.test_case "semantics preserved" `Quick semantics_preserved;
    Alcotest.test_case "effective region is executed" `Quick
      effective_region_is_executed;
    Alcotest.test_case "optimized not worse than natural" `Quick
      optimized_not_worse;
    Alcotest.test_case "ablation: inlining off" `Quick ablation_no_inline;
    Alcotest.test_case "profile passes pinned per benchmark" `Slow
      profile_passes_pinned;
    Alcotest.test_case "reused profile equals a fresh pass" `Slow
      reused_profile_is_fresh;
  ]
