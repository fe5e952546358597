(** Generic iterative forward bit-vector dataflow over an explicit flow
    graph.

    A problem names its universe size, per-node gen/kill sets and
    confluence operator; {!solve} runs a worklist to the (unique, by
    monotonicity) fixpoint.  Reachability and the linter's
    reaching-weights checks are instances. *)

open Ir

type confluence =
  | Union  (** may-analyses: reachability *)
  | Intersection  (** must-analyses: availability, dominance-style facts *)

type problem = {
  nnodes : int;
  nbits : int;  (** universe size of every set *)
  succs : int -> int list;
  preds : int -> int list;
  gen : int -> Bitset.t;
  kill : int -> Bitset.t;
  confluence : confluence;
  boundary : int list;  (** boundary nodes: the flow-graph entries *)
  boundary_value : Bitset.t;  (** input value at the boundary nodes *)
}

type solution = {
  in_ : Bitset.t array;
      (** value flowing into each node's transfer function (block entry) *)
  out : Bitset.t array;  (** value after the node's transfer function *)
  iterations : int;  (** worklist pops until the fixpoint *)
  capped : bool;
      (** true iff [?max_iters] stopped the worklist early; the solution
          is then a pre-fixpoint and MUST NOT back any soundness claim *)
}

val solve : ?max_iters:int -> problem -> solution
(** [max_iters] caps worklist pops (a widening stand-in for graphs that
    converge slowly, e.g. irreducible CFGs); hitting it sets
    [solution.capped] and logs a warning. *)

(** {2 Generic-lattice solver}

    The same chaotic iteration over caller-supplied value operations —
    the cache age-vector domains of {!Absint} are instances.  Values are
    mutated in place; [make] need not produce a join identity because
    the meet assigns its first contributor and joins the rest. *)

type 'a lattice = {
  make : unit -> 'a;  (** fresh interior value *)
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
  v_transfer : int -> src:'a -> dst:'a -> unit;  (** [dst := f_v(src)] *)
}

type 'a value_solution = {
  v_in : 'a array;
  v_out : 'a array;
  v_iterations : int;
  v_capped : bool;
  v_warnings : Diag.t list;
      (** the [Lint]-stage cap warning when [v_capped] *)
}

val solve_values : ?max_iters:int -> 'a value_problem -> 'a value_solution

val cfg_preds : Cfg.block array -> Cfg.label list array
(** Predecessor lists derived from {!Cfg.successors}, deduplicated. *)

val iterations_total : Obs.Metrics.counter
(** Telemetry: worklist pops across every [solve] call. *)
