(* Function inline expansion (paper step 2).

   Call sites with high dynamic execution count are replaced with the
   callee body, turning the important inter-function control transfers
   into intra-function transfers.  The paper reports this both enlarges
   function bodies (feeding trace selection) and removes potential cache
   mapping conflicts between interacting functions.

   Mechanics: the callee's blocks are appended to the caller (labels and
   registers renamed by a constant offset), the call block's terminator
   becomes argument moves plus a jump to the inlined entry, and every
   callee [Ret] becomes a result move plus a jump to the original return
   continuation.  Function indices never change, so profile-derived site
   identities stay valid while a round of inlining proceeds. *)

open Ir

type config = {
  min_call_count : int; (* a site must execute at least this often *)
  min_call_fraction : float; (* ... or carry this share of all calls *)
  max_callee_insns : int; (* never inline callees larger than this *)
  max_program_growth : float; (* cap on total static code growth *)
  rounds : int; (* re-profile and repeat, for nested inlining *)
}

(* Defaults tuned so static growth lands in the paper's observed 0-34%
   range while still eliminating the bulk of dynamic calls. *)
let default_config =
  {
    min_call_count = 100;
    min_call_fraction = 0.004;
    max_callee_insns = 800;
    max_program_growth = 1.35;
    rounds = 3;
  }

type report = {
  sites_inlined : int;
  insns_before : int;
  insns_after : int;
  rounds_used : int;
}

let code_increase r =
  if r.insns_before = 0 then 0.
  else float_of_int (r.insns_after - r.insns_before) /. float_of_int r.insns_before

(* Splice [callee] into [caller] at [site], assuming the block ends in a
   call to that callee.  Returns the updated caller. *)
let splice (caller : Prog.func) site (callee : Prog.func) : Prog.func =
  let call_block = caller.blocks.(site) in
  match call_block.Cfg.term with
  | Cfg.Call { args; dst; ret_to; callee = callee_name } ->
    if callee_name <> callee.name then
      Diag.error ~stage:Diag.Structure ~func:caller.name ~block:site
        "inline splice: call targets %s, not %s" callee_name callee.name;
    let base_label = Array.length caller.blocks in
    let base_reg = caller.nregs in
    let remap_l l = base_label + l in
    let remap_r r = base_reg + r in
    let inlined =
      Array.map
        (fun (b : Cfg.block) ->
          let insns = Array.map (Insn.map_regs remap_r) b.Cfg.insns in
          match b.Cfg.term with
          | Cfg.Ret op ->
            let op = Option.map (Insn.map_operand_regs remap_r) op in
            let extra =
              match (dst, op) with
              | Some d, Some o -> [| Insn.Mov (d, o) |]
              | Some d, None -> [| Insn.Mov (d, Insn.Imm 0) |]
              | None, _ -> [||]
            in
            Cfg.mk_block (Array.append insns extra) (Cfg.Jump ret_to)
          | t ->
            Cfg.mk_block insns
              (Cfg.map_term_labels remap_l (Cfg.map_term_regs remap_r t)))
        callee.blocks
    in
    (* Move the actual arguments into the renamed parameter registers and
       fall into the inlined entry block.  Extra arguments beyond the
       parameter count are dropped, mirroring the interpreter. *)
    let arg_movs =
      List.filteri (fun idx _ -> idx < callee.nparams) args
      |> List.mapi (fun idx o -> Insn.Mov (base_reg + idx, o))
      |> Array.of_list
    in
    (* Preserve any size override on the call block (it may be the
       caller's entry block carrying prologue padding), extended by the
       argument moves just added. *)
    let call_block' =
      Cfg.mk_block
        ?size_override:
          (Option.map
             (fun n -> n + Array.length arg_movs)
             call_block.Cfg.size_override)
        (Array.append call_block.Cfg.insns arg_movs)
        (Cfg.Jump base_label)
    in
    let blocks = Array.append (Array.copy caller.blocks) inlined in
    blocks.(site) <- call_block';
    { caller with nregs = base_reg + callee.nregs; blocks }
  | Cfg.Jump _ | Cfg.Br _ | Cfg.Switch _ | Cfg.Ret _ ->
    Diag.error ~stage:Diag.Structure ~func:caller.name ~block:site
      "inline splice: block does not end in a call to %s" callee.name

(* One pass over the weighted call graph: inline the qualifying sites in
   decreasing dynamic-count order, respecting size and recursion limits.
   [budget] bounds the program's total instruction count. *)
let expand_once config ~budget (prog : Prog.program)
    (profile : Vm.Profile.t) : Prog.program * int =
  let total_calls = profile.Vm.Profile.dyn_calls in
  let threshold =
    max config.min_call_count
      (int_of_float (config.min_call_fraction *. float_of_int total_calls))
  in
  let sites =
    Vm.Profile.fold_sites profile
      (fun caller block callee count acc ->
        if count >= threshold then (count, caller, block, callee) :: acc
        else acc)
      []
    |> List.sort (fun (c1, a1, b1, d1) (c2, a2, b2, d2) ->
           match compare c2 c1 with
           | 0 -> compare (a1, b1, d1) (a2, b2, d2)
           | c -> c)
  in
  let prog = ref prog in
  let graph = ref (Callgraph.build !prog) in
  let total_insns = ref (Prog.total_instr_count !prog) in
  let inlined = ref 0 in
  List.iter
    (fun (_count, caller_fid, block, callee_fid) ->
      let caller = !prog.Prog.funcs.(caller_fid) in
      let callee = !prog.Prog.funcs.(callee_fid) in
      let callee_size = Prog.func_instr_count callee in
      let still_a_call =
        match caller.blocks.(block).Cfg.term with
        | Cfg.Call { callee = name; _ } -> name = callee.name
        | _ -> false
      in
      if
        still_a_call && caller_fid <> callee_fid
        && callee_size <= config.max_callee_insns
        && !total_insns + callee_size <= budget
        && not (Callgraph.in_cycle_with !graph ~src:caller_fid ~dst:callee_fid)
      then begin
        let caller' = splice caller block callee in
        let funcs = Array.copy !prog.Prog.funcs in
        funcs.(caller_fid) <- caller';
        prog := Prog.with_funcs !prog funcs;
        (* Splicing may add new caller->X edges; refresh for recursion
           checks. *)
        graph := Callgraph.build !prog;
        total_insns := Prog.total_instr_count !prog;
        incr inlined
      end)
    sites;
  (!prog, !inlined)

let profile_passes =
  Obs.Metrics.counter "pipeline.profile_passes"
    ~help:"full profile passes over the profiling inputs"

let profile prog inputs =
  Obs.Metrics.incr profile_passes;
  Vm.Profile.profile prog inputs

(* Full expansion: inline, re-profile, and repeat so that calls inside
   freshly inlined bodies can be expanded too (paper reduces dynamic calls
   to ~1% of control transfers).  Round 0 works from the caller's profile
   and every later round from a profile of the previous round's output,
   so the only passes made are the ones an inlining round forces. *)
let expand ?(config = default_config) (profile0 : Vm.Profile.t)
    ~(inputs : Vm.Io.input list) :
    Prog.program * report * Vm.Profile.t option =
  let prog = profile0.Vm.Profile.prog in
  let insns_before = Prog.total_instr_count prog in
  let budget =
    int_of_float (config.max_program_growth *. float_of_int insns_before)
  in
  (* [p] is a profile of [prog]; it survives only a round that inlines
     nothing. *)
  let rec go round prog p sites =
    let prog', n =
      if round < config.rounds then expand_once config ~budget prog p
      else (prog, 0)
    in
    if n = 0 then (prog, sites, round, Some p)
    else if round + 1 >= config.rounds then (prog', sites + n, round + 1, None)
    else go (round + 1) prog' (profile prog' inputs) (sites + n)
  in
  let prog', sites_inlined, rounds_used, final = go 0 prog profile0 0 in
  Obs.Metrics.incr ~by:sites_inlined
    (Obs.Metrics.counter "pipeline.sites_inlined"
       ~help:"call sites expanded by inline rounds");
  ( prog',
    {
      sites_inlined;
      insns_before;
      insns_after = Prog.total_instr_count prog';
      rounds_used;
    },
    final )
