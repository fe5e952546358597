(* Shared fixtures for the test suite: small DSL programs and convenience
   runners. *)

open Ir.Ast.Dsl

let run ?(streams = []) ?(args = []) prog =
  Vm.Interp.run (Ir.Lower.program prog) (Vm.Io.input ~args streams)

let ret_of ?streams ?args prog = (run ?streams ?args prog).Vm.Interp.return_value

let out_of ?streams ?args prog =
  Vm.Io.output (run ?streams ?args prog).Vm.Interp.io 0

(* A program with a single main. *)
let main_prog ?(globals = []) ?(funcs = []) body =
  { Ir.Ast.globals; funcs = funcs @ [ func "main" [] body ]; entry = "main" }

(* gcd via repeated remainder: exercises calls and loops. *)
let gcd_func =
  func "gcd" [ "a"; "b" ]
    [
      while_ (v "b" <>% i 0)
        [ decl "t" (v "b"); set "b" (v "a" %% v "b"); set "a" (v "t") ];
      ret (v "a");
    ]

(* A loop fixture used by placement tests.  The CFG itself is the plain
   loop 0 -> 1 <-> {2 -> 4} with exit 1 -> 5; block 3 has no incoming
   CFG edge.  The diamond shape lives entirely in [diamond_weights],
   whose hand-built arcs route a cold path 1 -> 3 -> 4 alongside the hot
   1 -> 2 -> 4 — the placement algorithms consume only those weights, so
   the tests exercise a hot/cold arm split without the CFG having one.
   (For a CFG-level diamond see test_analysis.ml.) *)
let diamond_loop_func : Ir.Prog.func =
  let b insns term = Ir.Cfg.mk_block (Array.of_list insns) term in
  {
    Ir.Prog.name = "diamond";
    nparams = 1;
    nregs = 4;
    blocks =
      [|
        b [ Ir.Insn.Mov (1, Imm 0) ] (Jump 1);
        b [ Ir.Insn.Bin (Lt, 2, Reg 1, Reg 0) ] (Br (Reg 2, 2, 5));
        b
          [ Ir.Insn.Bin (Add, 3, Reg 3, Reg 1) ]
          (Jump 4);
        b [ Ir.Insn.Bin (Sub, 3, Reg 3, Reg 1) ] (Jump 4);
        b [ Ir.Insn.Bin (Add, 1, Reg 1, Imm 1) ] (Jump 1);
        b [] (Ret (Some (Reg 3)));
      |];
  }

(* Hand weights for [diamond_loop_func] where arm 2 dominates: the loop
   ran 100 times, 90 through block 2 and 10 through block 3. *)
let diamond_weights ?(hot = 90) ?(cold = 10) () =
  let n = hot + cold in
  Placement.Weight.cfg_of_lists ~func_weight:1
    ~blocks:[ (0, 1); (1, n + 1); (2, hot); (3, cold); (4, n); (5, 1) ]
    ~arcs:
      [
        (0, 1, 1);
        (1, 2, hot);
        (1, 3, cold);
        (1, 5, 1);
        (2, 4, hot);
        (3, 4, cold);
        (4, 1, n);
      ]

(* Tiny two-function program for call-related tests. *)
let caller_prog =
  {
    Ir.Ast.globals = [];
    funcs =
      [
        func "twice" [ "x" ] [ ret (v "x" *% i 2) ];
        func "main" []
          [
            decl "acc" (i 0);
            for_
              [ decl "k" (i 0) ]
              (v "k" <% i 10)
              [ incr_ "k" ]
              [ set "acc" (v "acc" +% call "twice" [ v "k" ]) ];
            ret (v "acc");
          ];
      ];
    entry = "main";
  }

(* Deterministic pseudo-random fetch-address generator for cache tests. *)
let random_addresses ~seed ~count ~max_addr =
  let rng = Workloads.Rng.create seed in
  Array.init count (fun _ -> Workloads.Rng.int rng max_addr / 4 * 4)

(* Reference profiler: the oracle for [Vm.Profile].  It keeps every
   observer event in association lists keyed by the event itself — no
   successor slots, no per-block call counts — and answers each accessor
   by filtering those lists. *)
module Ref_profile = struct
  type 'k counts = ('k * int ref) list ref

  type t = {
    blocks : (int * int) counts; (* (fid, label) *)
    arcs : (int * int * int) counts; (* (fid, src, dst) *)
    sites : (int * int * int) counts; (* (caller, block, callee) *)
    entries : int counts; (* fid *)
  }

  let bump (tbl : 'k counts) key =
    match List.assoc_opt key !tbl with
    | Some c -> incr c
    | None -> tbl := (key, ref 1) :: !tbl

  let count (tbl : 'k counts) key =
    match List.assoc_opt key !tbl with Some c -> !c | None -> 0

  let profile (prog : Ir.Prog.program) inputs =
    let t =
      { blocks = ref []; arcs = ref []; sites = ref []; entries = ref [] }
    in
    let observer =
      {
        Vm.Interp.on_block = (fun fid l -> bump t.blocks (fid, l));
        on_arc = (fun fid src dst -> bump t.arcs (fid, src, dst));
        on_call =
          (fun caller block callee ->
            bump t.sites (caller, block, callee);
            bump t.entries callee);
      }
    in
    List.iter
      (fun input ->
        bump t.entries prog.Ir.Prog.entry;
        ignore (Vm.Interp.run ~observer prog input))
      inputs;
    t

  let block_weight t fid l = count t.blocks (fid, l)
  let arc_weight t fid src dst = count t.arcs (fid, src, dst)
  let func_weight t fid = count t.entries fid

  let site_weight t ~caller ~block ~callee =
    count t.sites (caller, block, callee)

  let out_arcs t fid src =
    List.filter_map
      (fun ((f, s, d), c) -> if f = fid && s = src then Some (d, !c) else None)
      !(t.arcs)

  let in_arcs t fid dst =
    List.filter_map
      (fun ((f, s, d), c) -> if f = fid && d = dst then Some (s, !c) else None)
      !(t.arcs)

  let call_sites_of t fid =
    List.filter_map
      (fun ((f, b, callee), c) -> if f = fid then Some (b, callee, !c) else None)
      !(t.sites)
end

(* Every accessor of [prof] against the reference profile of the same
   program and inputs; one line per disagreement.  List-valued accessors
   compare as sets — their order is not part of the contract. *)
let profile_disagreements (prof : Vm.Profile.t) (oracle : Ref_profile.t) =
  let prog = prof.Vm.Profile.prog in
  let nfuncs = Array.length prog.Ir.Prog.funcs in
  let bad = ref [] in
  let expect what got want =
    if got <> want then bad := what :: !bad
  in
  let sorted l = List.sort compare l in
  Array.iteri
    (fun fid (f : Ir.Prog.func) ->
      let n = Array.length f.Ir.Prog.blocks in
      let where = Printf.sprintf "f%d" fid in
      expect (where ^ " func_weight")
        (Vm.Profile.func_weight prof fid)
        (Ref_profile.func_weight oracle fid);
      expect (where ^ " call_sites_of")
        (sorted (Vm.Profile.call_sites_of prof fid))
        (sorted (Ref_profile.call_sites_of oracle fid));
      let incoming = Vm.Profile.in_arcs prof fid in
      for l = 0 to n - 1 do
        let where = Printf.sprintf "f%d b%d" fid l in
        expect (where ^ " block_weight")
          (Vm.Profile.block_weight prof fid l)
          (Ref_profile.block_weight oracle fid l);
        expect (where ^ " out_arcs")
          (sorted (Vm.Profile.out_arcs prof fid l))
          (sorted (Ref_profile.out_arcs oracle fid l));
        expect (where ^ " in_arcs") (sorted incoming.(l))
          (sorted (Ref_profile.in_arcs oracle fid l));
        for dst = 0 to n - 1 do
          expect
            (Printf.sprintf "%s arc_weight ->b%d" where dst)
            (Vm.Profile.arc_weight prof fid l dst)
            (Ref_profile.arc_weight oracle fid l dst)
        done;
        for callee = 0 to nfuncs - 1 do
          expect
            (Printf.sprintf "%s site_weight ->f%d" where callee)
            (Vm.Profile.site_weight prof ~caller:fid ~block:l ~callee)
            (Ref_profile.site_weight oracle ~caller:fid ~block:l ~callee)
        done
      done)
    prog.Ir.Prog.funcs;
  List.rev !bad
