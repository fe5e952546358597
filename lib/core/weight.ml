(* Weighted-graph views consumed by the placement algorithms.

   The algorithms are written against this small interface rather than
   against [Vm.Profile] directly, so tests can drive them with hand-built
   weights. *)

open Ir

(* Weighted control graph of one function. *)
type cfg_weights = {
  func_weight : int; (* times the function was entered *)
  block : Cfg.label -> int;
  arcs_out : Cfg.label -> (Cfg.label * int) list;
  arcs_in : Cfg.label -> (Cfg.label * int) list;
}

(* Weighted call graph of a program. *)
type call_weights = {
  pair : int -> int -> int; (* caller fid -> callee fid -> total calls *)
  callees : int -> int list; (* statically called functions, deduplicated *)
  entries : int -> int; (* times the function was entered *)
  size : int -> int; (* function byte size; layout algorithms that cap or
                        score by distance (e.g. call-chain clustering)
                        consult it *)
}

let cfg_of_profile (profile : Vm.Profile.t) fid =
  let incoming = Vm.Profile.in_arcs profile fid in
  {
    func_weight = Vm.Profile.func_weight profile fid;
    block = Vm.Profile.block_weight profile fid;
    arcs_out = Vm.Profile.out_arcs profile fid;
    arcs_in = (fun l -> incoming.(l));
  }

let call_of_profile (profile : Vm.Profile.t) =
  let prog = profile.Vm.Profile.prog in
  let graph = Callgraph.build prog in
  let pair_counts = Hashtbl.create 64 in
  Vm.Profile.fold_sites profile
    (fun caller _block callee count () ->
      (* weight(X, X) = 0, per the paper's GlobalLayout algorithm *)
      if caller <> callee then begin
        let key = (caller, callee) in
        let cur =
          match Hashtbl.find_opt pair_counts key with
          | Some c -> c
          | None -> 0
        in
        Hashtbl.replace pair_counts key (cur + count)
      end)
    ();
  {
    pair =
      (fun caller callee ->
        match Hashtbl.find_opt pair_counts (caller, callee) with
        | Some c -> c
        | None -> 0);
    callees = (fun fid -> graph.Callgraph.callees.(fid));
    entries = (fun fid -> Vm.Profile.func_weight profile fid);
    size = (fun fid -> Prog.func_byte_size prog.Prog.funcs.(fid));
  }

(* Hand-built control-graph weights, for tests and examples: a list of
   (block, count) and a list of (src, dst, count).  [arcs_out] follows
   [Vm.Profile.out_arcs]' order. *)
let cfg_of_lists ~func_weight ~blocks ~arcs =
  let block_tbl = Hashtbl.create 16 in
  List.iter (fun (l, c) -> Hashtbl.replace block_tbl l c) blocks;
  let outs = Hashtbl.create 16 and ins = Hashtbl.create 16 in
  List.iter
    (fun (src, dst, c) ->
      Hashtbl.replace outs src
        ((dst, c) :: (Option.value ~default:[] (Hashtbl.find_opt outs src)));
      Hashtbl.replace ins dst
        ((src, c) :: (Option.value ~default:[] (Hashtbl.find_opt ins dst))))
    arcs;
  Hashtbl.filter_map_inplace
    (fun _ a -> Some (List.sort Vm.Profile.arc_order a))
    outs;
  {
    func_weight;
    block =
      (fun l ->
        match Hashtbl.find_opt block_tbl l with Some c -> c | None -> 0);
    arcs_out =
      (fun l ->
        match Hashtbl.find_opt outs l with Some a -> a | None -> []);
    arcs_in =
      (fun l -> match Hashtbl.find_opt ins l with Some a -> a | None -> []);
  }
