(* Execution profiling (paper step 1).

   Accumulates, across any number of runs:
   - the weighted control graph of every function (block and arc counts),
   - the weighted call graph (per-call-site counts and function entry
     counts),
   - whole-program dynamic totals for Table 2 / Table 3.

   Counters are dense: an arc is counted in the slot of its destination
   among the source block's [Cfg.successors], and a call in its block's
   slot — a call block has exactly one static callee, resolved once in
   [Prog.callees].  A profiling run therefore does array bumps only, no
   hashing.

   The placement steps break ties between equal-weight arcs by their
   position in [out_arcs], so that order is part of every layout.  It is
   the iteration order of a [Hashtbl] keyed by destination and filled in
   the order the arcs were first counted — the order every committed
   table, golden and fuzz report was produced with.  Each arc slot
   therefore also records when it was first counted. *)

open Ir

type func_profile = {
  block_counts : int array;
  succs : Cfg.label array array; (* succs.(src): Cfg.successors order *)
  arc_counts : int array array; (* arc_counts.(src).(slot) *)
  first_counted : int array array; (* per slot: 1-based order, 0 = never *)
  mutable arcs_seen : int; (* slots counted so far *)
  call_counts : int array; (* per block: calls its terminator issued *)
}

type t = {
  prog : Prog.program;
  funcs : func_profile array;
  entry_counts : int array; (* per function: number of invocations *)
  mutable runs : int;
  mutable dyn_insns : int;
  mutable dyn_blocks : int;
  mutable dyn_calls : int;
  mutable dyn_branches : int;
}

let create (prog : Prog.program) =
  let funcs =
    Array.map
      (fun (f : Prog.func) ->
        let n = Array.length f.blocks in
        let succs =
          Array.map (fun b -> Array.of_list (Cfg.successors b)) f.blocks
        in
        let per_slot () =
          Array.map (fun s -> Array.make (Array.length s) 0) succs
        in
        {
          block_counts = Array.make n 0;
          succs;
          arc_counts = per_slot ();
          first_counted = per_slot ();
          arcs_seen = 0;
          call_counts = Array.make n 0;
        })
      prog.funcs
  in
  {
    prog;
    funcs;
    entry_counts = Array.make (Array.length prog.funcs) 0;
    runs = 0;
    dyn_insns = 0;
    dyn_blocks = 0;
    dyn_calls = 0;
    dyn_branches = 0;
  }

(* Slot of [dst] among [succs], or -1.  Successor lists are short, and
   the common transfers (jump, call return, branch taken) hit slot 0. *)
let slot (succs : Cfg.label array) dst =
  let n = Array.length succs in
  let i = ref 0 in
  while !i < n && Array.unsafe_get succs !i <> dst do
    incr i
  done;
  if !i < n then !i else -1

let count_arc fp src s c =
  let counts = fp.arc_counts.(src) in
  if counts.(s) = 0 && c <> 0 then begin
    fp.arcs_seen <- fp.arcs_seen + 1;
    fp.first_counted.(src).(s) <- fp.arcs_seen
  end;
  counts.(s) <- c

let observer t =
  {
    Interp.on_block =
      (fun fid l ->
        let counts = t.funcs.(fid).block_counts in
        counts.(l) <- counts.(l) + 1);
    on_arc =
      (fun fid src dst ->
        let fp = t.funcs.(fid) in
        let s = slot fp.succs.(src) dst in
        count_arc fp src s (fp.arc_counts.(src).(s) + 1));
    on_call =
      (fun caller block callee ->
        let counts = t.funcs.(caller).call_counts in
        counts.(block) <- counts.(block) + 1;
        t.entry_counts.(callee) <- t.entry_counts.(callee) + 1);
  }

let run t input =
  t.entry_counts.(t.prog.entry) <- t.entry_counts.(t.prog.entry) + 1;
  let r = Interp.run ~observer:(observer t) t.prog input in
  t.runs <- t.runs + 1;
  t.dyn_insns <- t.dyn_insns + r.dyn_insns;
  t.dyn_blocks <- t.dyn_blocks + r.dyn_blocks;
  t.dyn_calls <- t.dyn_calls + r.dyn_calls;
  t.dyn_branches <- t.dyn_branches + r.dyn_branches;
  r

let profile prog inputs =
  let t = create prog in
  List.iter (fun input -> ignore (run t input)) inputs;
  t

let block_weight t fid l = t.funcs.(fid).block_counts.(l)

let arc_weight t fid src dst =
  let fp = t.funcs.(fid) in
  let s = slot fp.succs.(src) dst in
  if s < 0 then 0 else fp.arc_counts.(src).(s)

let func_weight t fid = t.entry_counts.(fid)

let site_weight t ~caller ~block ~callee =
  if t.prog.callees.(caller).(block) = callee then
    t.funcs.(caller).call_counts.(block)
  else 0

(* Arcs that never ran are absent, as are slots a duplicate [Br] target
   left unused. *)
let out_arcs t fid src =
  let fp = t.funcs.(fid) in
  let succs = fp.succs.(src) and counts = fp.arc_counts.(src) in
  let first = fp.first_counted.(src) in
  let counted =
    List.filter (fun s -> counts.(s) <> 0)
      (List.init (Array.length succs) Fun.id)
  in
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun s -> Hashtbl.replace tbl succs.(s) counts.(s))
    (List.sort (fun a b -> compare first.(a) first.(b)) counted);
  Hashtbl.fold (fun dst c acc -> (dst, c) :: acc) tbl []

let iter_arcs t fid f =
  let fp = t.funcs.(fid) in
  Array.iteri
    (fun src counts ->
      Array.iteri
        (fun s c -> if c <> 0 then f src fp.succs.(src).(s) c)
        counts)
    fp.arc_counts

(* Incoming intra-function arc counts for every block of a function. *)
let in_arcs t fid =
  let incoming = Array.make (Array.length t.funcs.(fid).block_counts) [] in
  iter_arcs t fid (fun src dst c ->
      incoming.(dst) <- (src, c) :: incoming.(dst));
  incoming

let fold_sites t f acc =
  let acc = ref acc in
  Array.iteri
    (fun caller fp ->
      Array.iteri
        (fun block c ->
          if c <> 0 then
            acc := f caller block t.prog.callees.(caller).(block) c !acc)
        fp.call_counts)
    t.funcs;
  !acc

(* Total dynamic calls made from each call site of a function, by block. *)
let call_sites_of t fid =
  let callees = t.prog.callees.(fid) in
  let counts = t.funcs.(fid).call_counts in
  let acc = ref [] in
  for block = Array.length counts - 1 downto 0 do
    if counts.(block) <> 0 then
      acc := (block, callees.(block), counts.(block)) :: !acc
  done;
  !acc

let set_block_weight t fid l c = t.funcs.(fid).block_counts.(l) <- c
let set_func_weight t fid c = t.entry_counts.(fid) <- c

let set_arc_weight t fid src dst c =
  let fp = t.funcs.(fid) in
  match slot fp.succs.(src) dst with
  | -1 -> invalid_arg "Profile.set_arc_weight: not a CFG successor"
  | s -> count_arc fp src s c

let set_site_weight t ~caller ~block ~callee c =
  if t.prog.callees.(caller).(block) <> callee then
    invalid_arg "Profile.set_site_weight: block does not call callee";
  t.funcs.(caller).call_counts.(block) <- c
