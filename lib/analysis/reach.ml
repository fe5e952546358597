open Ir

let blocks = Cfg.reachable

let func (f : Prog.func) = blocks f.Prog.blocks

let unreachable (f : Prog.func) =
  let reach = func f in
  List.filter
    (fun l -> not reach.(l))
    (List.init (Array.length f.Prog.blocks) Fun.id)

(* The same fact as a dataflow instance: one bit meaning "reachable",
   generated at the entry boundary and propagated forward with an empty
   transfer.  [out.(l)] nonempty <=> reachable. *)
let as_dataflow (f : Prog.func) : Dataflow.solution =
  let blocks = f.Prog.blocks in
  let n = Array.length blocks in
  let preds = Dataflow.cfg_preds blocks in
  let empty = Bitset.create 1 in
  let one =
    let s = Bitset.create 1 in
    Bitset.add s 0;
    s
  in
  Dataflow.solve
    {
      Dataflow.nnodes = n;
      nbits = 1;
      succs = (fun l -> Cfg.successors blocks.(l));
      preds = (fun l -> preds.(l));
      gen = (fun _ -> empty);
      kill = (fun _ -> empty);
      boundary = (if n = 0 then [] else [ 0 ]);
      boundary_value = one;
    }
