(* Iterative forward bit-vector dataflow: a round-robin worklist over an
   explicit graph, with the union meet taken over graph predecessors and
   the classic gen/kill transfer.

   Interior nodes start at the union identity (the empty set) so the
   first meet is a plain copy; nodes never reached by the worklist
   (unreachable from every boundary node) keep that identity, which
   callers can detect — reachability itself is the instance with an
   empty gen/kill and a one-bit universe. *)

open Ir

type problem = {
  nnodes : int;
  nbits : int;
  succs : int -> int list;
  preds : int -> int list;
  gen : int -> Bitset.t;
  kill : int -> Bitset.t;
  boundary : int list;
  boundary_value : Bitset.t;
}

type solution = {
  in_ : Bitset.t array;
  out : Bitset.t array;
  iterations : int;
  capped : bool;
}

let iterations_total =
  Obs.Metrics.counter "analysis.dataflow_iterations"
    ~help:"worklist pops across all dataflow solves"

let cap_warning ~max_iters ~iterations =
  Diag.make ~severity:Warning ~stage:Lint
    "dataflow: iteration cap %d hit after %d worklist pops; solution is a \
     pre-fixpoint and must not be trusted"
    max_iters iterations

let solve ?max_iters (p : problem) : solution =
  let n = p.nnodes in
  let init () = Array.init n (fun _ -> Bitset.create p.nbits) in
  let in_ = init () and out = init () in
  let boundary = Array.make n false in
  List.iter
    (fun b ->
      boundary.(b) <- true;
      Bitset.assign ~dst:in_.(b) p.boundary_value)
    p.boundary;
  let on_list = Array.make n false in
  let queue = Queue.create () in
  let push v =
    if not on_list.(v) then begin
      on_list.(v) <- true;
      Queue.add v queue
    end
  in
  (* Seed with the boundary nodes first, then every node in order. *)
  List.iter push p.boundary;
  for v = 0 to n - 1 do
    push v
  done;
  let iterations = ref 0 in
  let capped = ref false in
  let over_cap () =
    match max_iters with
    | Some m when !iterations >= m ->
        capped := true;
        Queue.clear queue;
        true
    | _ -> false
  in
  while not (Queue.is_empty queue || over_cap ()) do
    let v = Queue.pop queue in
    on_list.(v) <- false;
    incr iterations;
    (* Meet over predecessors (the boundary nodes additionally keep their
       boundary value in the mix). *)
    let preds = p.preds v in
    if preds <> [] || boundary.(v) then begin
      let acc = Bitset.create p.nbits in
      let first = ref true in
      let meet src =
        if !first then begin
          Bitset.assign ~dst:acc src;
          first := false
        end
        else ignore (Bitset.union_into ~dst:acc src)
      in
      if boundary.(v) then meet p.boundary_value;
      List.iter (fun u -> meet out.(u)) preds;
      Bitset.assign ~dst:in_.(v) acc
    end;
    let changed =
      Bitset.transfer ~gen:(p.gen v) ~kill:(p.kill v) ~src:in_.(v)
        ~dst:out.(v)
    in
    if changed then List.iter push (p.succs v)
  done;
  Obs.Metrics.incr ~by:!iterations iterations_total;
  if !capped then
    Obs.Log.warn "dataflow: iteration cap hit after %d pops; pre-fixpoint result"
      !iterations;
  { in_; out; iterations = !iterations; capped = !capped }

(* Generic-lattice variant of the same chaotic iteration: callers supply
   the value operations instead of gen/kill bit-vectors.  Values are
   mutated in place ([assign]/[join_into]/[transfer] write into [dst]),
   so a lattice instance over byte arrays allocates exactly 2n + 2
   states for the whole solve.  No join identity is required: the meet
   assigns the first contributor and joins the rest, exactly like the
   bit-vector solver's [first] flag. *)

type 'a lattice = {
  make : unit -> 'a;
      (* fresh interior value; only nodes never popped (unreachable from
         every boundary) still hold it in the solution *)
  assign : dst:'a -> 'a -> unit;
  join_into : dst:'a -> 'a -> unit;
  equal : 'a -> 'a -> bool;
}

type 'a value_problem = {
  v_nnodes : int;
  v_succs : int -> int list;
  v_preds : int -> int list;
  v_boundary : int list;
  v_boundary_value : 'a;
  v_lattice : 'a lattice;
  v_transfer : int -> src:'a -> dst:'a -> unit;
}

type 'a value_solution = {
  v_in : 'a array;
  v_out : 'a array;
  v_iterations : int;
  v_capped : bool;
  v_warnings : Diag.t list;
}

let solve_values ?max_iters (p : 'a value_problem) : 'a value_solution =
  let n = p.v_nnodes in
  let lat = p.v_lattice in
  let in_ = Array.init n (fun _ -> lat.make ())
  and out = Array.init n (fun _ -> lat.make ()) in
  let scratch = lat.make () in
  let boundary = Array.make n false in
  List.iter
    (fun b ->
      boundary.(b) <- true;
      lat.assign ~dst:in_.(b) p.v_boundary_value)
    p.v_boundary;
  let on_list = Array.make n false in
  let queue = Queue.create () in
  let push v =
    if not on_list.(v) then begin
      on_list.(v) <- true;
      Queue.add v queue
    end
  in
  List.iter push p.v_boundary;
  for v = 0 to n - 1 do
    push v
  done;
  let iterations = ref 0 in
  let capped = ref false in
  let over_cap () =
    match max_iters with
    | Some m when !iterations >= m ->
        capped := true;
        Queue.clear queue;
        true
    | _ -> false
  in
  while not (Queue.is_empty queue || over_cap ()) do
    let v = Queue.pop queue in
    on_list.(v) <- false;
    incr iterations;
    let preds = p.v_preds v in
    if preds <> [] || boundary.(v) then begin
      let first = ref true in
      let meet src =
        if !first then begin
          lat.assign ~dst:in_.(v) src;
          first := false
        end
        else lat.join_into ~dst:in_.(v) src
      in
      if boundary.(v) then meet p.v_boundary_value;
      List.iter (fun u -> meet out.(u)) preds
    end;
    p.v_transfer v ~src:in_.(v) ~dst:scratch;
    if not (lat.equal scratch out.(v)) then begin
      lat.assign ~dst:out.(v) scratch;
      List.iter push (p.v_succs v)
    end
  done;
  Obs.Metrics.incr ~by:!iterations iterations_total;
  let warnings =
    if !capped then begin
      Obs.Log.warn "dataflow: iteration cap hit after %d pops; pre-fixpoint result"
        !iterations;
      [ cap_warning ~max_iters:(Option.get max_iters) ~iterations:!iterations ]
    end
    else []
  in
  {
    v_in = in_;
    v_out = out;
    v_iterations = !iterations;
    v_capped = !capped;
    v_warnings = warnings;
  }

(* Predecessor lists from the terminator successors, deduplicated the
   same way [Cfg.successors] deduplicates its targets. *)
let cfg_preds (blocks : Cfg.block array) : Cfg.label list array =
  let n = Array.length blocks in
  let preds = Array.make n [] in
  Array.iteri
    (fun src b ->
      List.iter (fun dst -> preds.(dst) <- src :: preds.(dst))
        (Cfg.successors b))
    blocks;
  Array.map List.rev preds
