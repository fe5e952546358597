(* Profiling tests: block/arc/call-site weights and flow-conservation
   invariants of the weighted control graph. *)

open Ir.Ast.Dsl
open Helpers

let accumulation () =
  let p = Ir.Lower.program caller_prog in
  let prof = Vm.Profile.profile p [ Vm.Io.input []; Vm.Io.input [] ] in
  Alcotest.(check int) "runs" 2 prof.Vm.Profile.runs;
  Alcotest.(check int) "calls accumulate" 20 prof.Vm.Profile.dyn_calls;
  let main_fid = p.Ir.Prog.entry in
  Alcotest.(check int) "entry executed twice" 2
    (Vm.Profile.block_weight prof main_fid 0);
  let twice_fid = Ir.Prog.func_index p "twice" in
  Alcotest.(check int) "callee entered 20 times" 20
    (Vm.Profile.func_weight prof twice_fid);
  Alcotest.(check int) "site weight" 20
    (let sites = Vm.Profile.call_sites_of prof main_fid in
     List.fold_left (fun acc (_, _, c) -> acc + c) 0 sites)

(* Flow conservation: for every executed block with outgoing arcs, the sum
   of outgoing arc weights equals the number of times control left the
   block, i.e. its execution count (returns/exits excepted). *)
let flow_conservation () =
  let b = Workloads.Registry.find "wc" in
  let p = Workloads.Bench.program b in
  let prof =
    Vm.Profile.profile p [ Vm.Io.input [ "hello world\nthe end\n" ] ]
  in
  Array.iteri
    (fun fid (f : Ir.Prog.func) ->
      Array.iteri
        (fun l block ->
          let weight = Vm.Profile.block_weight prof fid l in
          let out =
            List.fold_left
              (fun acc (_, c) -> acc + c)
              0
              (Vm.Profile.out_arcs prof fid l)
          in
          match block.Ir.Cfg.term with
          | Ir.Cfg.Ret _ -> Alcotest.(check int) "ret has no out arcs" 0 out
          | Ir.Cfg.Jump _ | Ir.Cfg.Br _ | Ir.Cfg.Switch _ | Ir.Cfg.Call _ ->
            (* For calls the continuation arc fires on return, so out =
               weight as long as every call returned (it did). *)
            if out <> weight then
              Alcotest.failf "block %d/%d: weight %d but out arcs %d" fid l
                weight out)
        f.Ir.Prog.blocks)
    p.Ir.Prog.funcs

(* in_arcs must be the transpose of out_arcs. *)
let transpose () =
  let b = Workloads.Registry.find "grep" in
  let p = Workloads.Bench.program b in
  let prof =
    Vm.Profile.profile p
      [ Vm.Io.input [ "abc def\nthe quick fox\n"; "e f\n" ] ]
  in
  Array.iteri
    (fun fid (f : Ir.Prog.func) ->
      let incoming = Vm.Profile.in_arcs prof fid in
      let n = Array.length f.Ir.Prog.blocks in
      let from_out = Array.make n 0 in
      Array.iteri
        (fun src _ ->
          List.iter
            (fun (dst, c) -> from_out.(dst) <- from_out.(dst) + c)
            (Vm.Profile.out_arcs prof fid src))
        f.Ir.Prog.blocks;
      Array.iteri
        (fun dst arcs ->
          let total = List.fold_left (fun acc (_, c) -> acc + c) 0 arcs in
          Alcotest.(check int)
            (Printf.sprintf "in/out transpose %d/%d" fid dst)
            from_out.(dst) total)
        incoming)
    p.Ir.Prog.funcs

(* Block weight = sum of incoming arcs (+1 run for the entry of the entry
   function; + entries for callee entry blocks). *)
let entry_weights () =
  let p = Ir.Lower.program caller_prog in
  let prof = Vm.Profile.profile p [ Vm.Io.input [] ] in
  Array.iteri
    (fun fid (f : Ir.Prog.func) ->
      let incoming = Vm.Profile.in_arcs prof fid in
      Array.iteri
        (fun l _ ->
          let w = Vm.Profile.block_weight prof fid l in
          let inc = List.fold_left (fun acc (_, c) -> acc + c) 0 incoming.(l) in
          let expected =
            if l = 0 then inc + Vm.Profile.func_weight prof fid else inc
          in
          Alcotest.(check int)
            (Printf.sprintf "weight matches arcs %d/%d" fid l)
            expected w)
        f.Ir.Prog.blocks)
    p.Ir.Prog.funcs

(* ---------------- differential: dense counters vs the oracle --------- *)

let check_against_reference name prog inputs =
  let prof = Vm.Profile.profile prog inputs in
  match profile_disagreements prof (Ref_profile.profile prog inputs) with
  | [] -> prof
  | bad ->
    Alcotest.failf "%s: %d accessor(s) disagree with the reference, first %s"
      name (List.length bad) (List.hd bad)

(* A switch whose cases share a target (values 1 and 2) and a call whose
   return continuation is an arc of its own: the two transfers the dense
   slot layout has to get right. *)
let switch_call_prog =
  main_prog
    ~funcs:[ func "bump" [ "x" ] [ ret (v "x" +% i 1) ] ]
    [
      decl "acc" (i 0);
      for_
        [ decl "k" (i 0) ]
        (v "k" <% i 12)
        [ incr_ "k" ]
        [
          switch
            (v "k" %% i 4)
            [
              ([ 0 ], [ set "acc" (call "bump" [ v "acc" ]); break_ ]);
              ([ 1; 2 ], [ set "acc" (v "acc" +% i 2); break_ ]);
            ]
            [];
        ];
      ret (v "acc");
    ]

let switch_and_call_fixture () =
  let p = Ir.Lower.program switch_call_prog in
  let prof = check_against_reference "fixture" p [ Vm.Io.input [] ] in
  let main = p.Ir.Prog.entry in
  let blocks = p.Ir.Prog.funcs.(main).Ir.Prog.blocks in
  let find pick =
    let found = ref None in
    Array.iteri
      (fun l b -> if !found = None then found := pick l b.Ir.Cfg.term)
      blocks;
    match !found with Some x -> x | None -> Alcotest.fail "fixture shape"
  in
  let sw, shared =
    find (fun l -> function
      | Ir.Cfg.Switch (_, cases, _) ->
        let targets = Array.to_list (Array.map snd cases) in
        let shared t = List.length (List.filter (( = ) t) targets) > 1 in
        Option.map (fun t -> (l, t)) (List.find_opt shared targets)
      | _ -> None)
  in
  Alcotest.(check int) "values 1 and 2 share one arc" 6
    (Vm.Profile.arc_weight prof main sw shared);
  let call, ret_to =
    find (fun l -> function
      | Ir.Cfg.Call { ret_to; _ } -> Some (l, ret_to) | _ -> None)
  in
  Alcotest.(check int) "call block -> return continuation" 3
    (Vm.Profile.arc_weight prof main call ret_to);
  Alcotest.(check int) "calls from the site" 3
    (Vm.Profile.site_weight prof ~caller:main ~block:call
       ~callee:(Ir.Prog.func_index p "bump"))

let prop_matches_reference =
  QCheck.Test.make ~name:"profile accessors match the reference profiler"
    ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let p = Ir.Lower.program (Gen_prog.generate seed) in
      let inputs = [ Vm.Io.input []; Vm.Io.input [] ] in
      let prof = Vm.Profile.profile p inputs in
      match profile_disagreements prof (Ref_profile.profile p inputs) with
      | [] -> true
      | bad :: _ as all ->
        QCheck.Test.fail_reportf "%d disagreement(s), first %s"
          (List.length all) bad)

let suite =
  [
    Alcotest.test_case "accumulation across runs" `Quick accumulation;
    Alcotest.test_case "flow conservation" `Quick flow_conservation;
    Alcotest.test_case "in_arcs transposes out_arcs" `Quick transpose;
    Alcotest.test_case "block weight = incoming + entries" `Quick entry_weights;
    Alcotest.test_case "switch and call arcs match the reference" `Quick
      switch_and_call_fixture;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
