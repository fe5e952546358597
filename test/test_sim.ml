(* Simulation-layer tests: trace capture/replay, the driver's metrics, and
   Table 4 classification. *)

open Helpers

let pack_unpack () =
  let code = Sim.Trace_gen.pack 7 123456 in
  Alcotest.(check int) "fid" 7 (Sim.Trace_gen.unpack_fid code);
  Alcotest.(check int) "label" 123456 (Sim.Trace_gen.unpack_label code)

let record_consistency () =
  let p = Ir.Lower.program caller_prog in
  let trace = Sim.Trace_gen.record p (Vm.Io.input []) in
  Alcotest.(check int) "blocks recorded = blocks executed"
    trace.Sim.Trace_gen.result.Vm.Interp.dyn_blocks
    (Sim.Trace_gen.dyn_blocks trace);
  (* Fetch expansion under the natural map equals the interpreter's count. *)
  let map = Placement.Address_map.natural p in
  Alcotest.(check int) "dyn_insns match"
    trace.Sim.Trace_gen.result.Vm.Interp.dyn_insns
    (Sim.Trace_gen.dyn_insns map trace);
  let count = ref 0 in
  Sim.Trace_gen.iter_fetches map trace ~fetch:(fun _ -> incr count);
  Alcotest.(check int) "iter_fetches count" (Sim.Trace_gen.dyn_insns map trace)
    !count;
  (* All fetches land inside the program image. *)
  Sim.Trace_gen.iter_fetches map trace ~fetch:(fun a ->
      if a < 0 || a >= map.Placement.Address_map.total_bytes then
        Alcotest.failf "fetch address %d out of range" a)

let driver_metrics () =
  let p = Ir.Lower.program caller_prog in
  let trace = Sim.Trace_gen.record p (Vm.Io.input []) in
  let map = Placement.Address_map.natural p in
  (* A cache big enough for everything: only compulsory misses. *)
  let big = Icache.Config.make ~size:65536 ~block:64 () in
  let r = Sim.Driver.simulate big map (Sim.Trace.of_trace_gen trace) in
  Alcotest.(check int) "accesses = dyn insns"
    (Sim.Trace_gen.dyn_insns map trace)
    r.Sim.Driver.accesses;
  let blocks_touched =
    (map.Placement.Address_map.total_bytes + 63) / 64
  in
  Alcotest.(check bool) "compulsory misses only" true
    (r.Sim.Driver.misses <= blocks_touched);
  Alcotest.(check bool) "traffic = 16 words per miss" true
    (r.Sim.Driver.words_fetched = 16 * r.Sim.Driver.misses);
  Alcotest.(check bool) "avg exec positive" true (r.Sim.Driver.avg_exec_insns > 0.);
  (* Effective access time ordering: blocking >= streaming >= 1. *)
  Alcotest.(check bool) "blocking slowest" true
    (r.Sim.Driver.eat_blocking >= r.Sim.Driver.eat_streaming);
  Alcotest.(check bool) "eat >= hit time" true (r.Sim.Driver.eat_streaming >= 1.)

let classification () =
  (* Force one trace per block (min_prob > 1 forbids all growth): then no
     transfer is ever "desirable", and every arc goes tail->head, i.e.
     everything is neutral. *)
  let b = Workloads.Registry.find "wc" in
  let p = Workloads.Bench.program b in
  let input = Vm.Io.input [ "a b\nc\n" ] in
  let prof = Vm.Profile.profile p [ input ] in
  let singleton_sel =
    Array.mapi
      (fun fid f ->
        Placement.Trace_select.select ~min_prob:1.5 f
          (Placement.Weight.cfg_of_profile prof fid))
      p.Ir.Prog.funcs
  in
  let counts = Sim.Classify.run p singleton_sel input in
  Alcotest.(check int) "no desirable with singleton traces" 0
    counts.Sim.Classify.desirable;
  Alcotest.(check int) "no undesirable with singleton traces" 0
    counts.Sim.Classify.undesirable;
  Alcotest.(check bool) "all neutral" true (counts.Sim.Classify.neutral > 0);
  (* With real trace selection most transfers should be desirable. *)
  let sel =
    Array.mapi
      (fun fid f ->
        Placement.Trace_select.select f
          (Placement.Weight.cfg_of_profile prof fid))
      p.Ir.Prog.funcs
  in
  let c2 = Sim.Classify.run p sel input in
  Alcotest.(check bool) "desirable dominates undesirable" true
    (c2.Sim.Classify.desirable > c2.Sim.Classify.undesirable);
  Alcotest.(check int) "same total transfers"
    (Sim.Classify.total counts) (Sim.Classify.total c2)

let timing_model () =
  let model = { Icache.Timing.hit_cycles = 1; mem_latency = 10 } in
  (* Blocking: always latency + whole block. *)
  Alcotest.(check int) "blocking" 26
    (Icache.Timing.miss_stall model Icache.Timing.Blocking ~words_per_block:16
       ~word_in_block:3 ~run_words:5 ~fetched_words:16);
  (* Streaming: wait for words before the miss; leaving early pays the
     remaining fill. *)
  let s =
    Icache.Timing.miss_stall model Icache.Timing.Streaming ~words_per_block:16
      ~word_in_block:0 ~run_words:16 ~fetched_words:16
  in
  Alcotest.(check int) "streaming straight-line run" 10 s;
  let s2 =
    Icache.Timing.miss_stall model Icache.Timing.Streaming ~words_per_block:16
      ~word_in_block:8 ~run_words:0 ~fetched_words:16
  in
  (* miss at word 8, immediate branch: initial 18, tail = 26-18 = ... *)
  Alcotest.(check bool) "early branch pays the tail" true (s2 > 18 - 1);
  (* Partial: fill starts at the miss, minimal initial wait. *)
  let p =
    Icache.Timing.miss_stall model Icache.Timing.Streaming_partial
      ~words_per_block:16 ~word_in_block:8 ~run_words:8 ~fetched_words:8
  in
  Alcotest.(check int) "partial straight-line" 10 p

let estimator () =
  (* A program that fits in the cache has zero estimated conflicts, and
     its compulsory count equals its executed memory blocks. *)
  let p = Ir.Lower.program caller_prog in
  let prof = Vm.Profile.profile p [ Vm.Io.input [] ] in
  let map = Placement.Address_map.natural p in
  let big = Icache.Config.make ~size:65536 ~block:64 () in
  let est =
    Sim.Estimate.estimate big map
      ~block_weight:(Vm.Profile.block_weight prof)
      ~func_entries:(Vm.Profile.func_weight prof)
  in
  Alcotest.(check int) "no conflicts in a big cache" 0 est.Sim.Estimate.conflict;
  Alcotest.(check bool) "compulsory positive" true
    (est.Sim.Estimate.compulsory > 0);
  Alcotest.(check bool) "ratio sane" true
    (est.Sim.Estimate.est_miss_ratio >= 0.
    && est.Sim.Estimate.est_miss_ratio <= 1.);
  (* profile_fetches equals the profile's dynamic instruction count *)
  Alcotest.(check int) "fetches match profile" prof.Vm.Profile.dyn_insns
    est.Sim.Estimate.profile_fetches;
  (* A pathologically small cache must estimate conflicts for a two-hot-
     region program. *)
  let tiny = Icache.Config.make ~size:64 ~block:64 () in
  let est2 =
    Sim.Estimate.estimate tiny map
      ~block_weight:(Vm.Profile.block_weight prof)
      ~func_entries:(Vm.Profile.func_weight prof)
  in
  Alcotest.(check bool) "conflicts in a tiny cache" true
    (est2.Sim.Estimate.conflict > 0)

let suite =
  [
    Alcotest.test_case "pack/unpack" `Quick pack_unpack;
    Alcotest.test_case "analytical estimator" `Quick estimator;
    Alcotest.test_case "record consistency" `Quick record_consistency;
    Alcotest.test_case "driver metrics" `Quick driver_metrics;
    Alcotest.test_case "classification" `Quick classification;
    Alcotest.test_case "timing model" `Quick timing_model;
  ]
