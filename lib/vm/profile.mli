(** Execution profiling (paper step 1): weighted control graphs and the
    weighted call graph, accumulated over any number of runs. *)

open Ir

type func_profile
(** Per-function counters.  Arc counts are indexed by successor slot, in
    {!Ir.Cfg.successors} order; call counts by call block.  Read them
    through the accessors below. *)

type t = {
  prog : Prog.program;
  funcs : func_profile array;
  entry_counts : int array;  (** per function: number of invocations *)
  mutable runs : int;
  mutable dyn_insns : int;
  mutable dyn_blocks : int;
  mutable dyn_calls : int;
  mutable dyn_branches : int;
}

val create : Prog.program -> t
val observer : t -> Interp.observer

val run : t -> Io.input -> Interp.result
(** Execute one profiling run, accumulating counters. *)

val profile : Prog.program -> Io.input list -> t
(** Profile the program over all inputs. *)

val block_weight : t -> int -> Cfg.label -> int
val arc_weight : t -> int -> Cfg.label -> Cfg.label -> int
val func_weight : t -> int -> int
val site_weight : t -> caller:int -> block:Cfg.label -> callee:int -> int

val out_arcs : t -> int -> Cfg.label -> (Cfg.label * int) list
(** Outgoing intra-function arcs of a block with nonzero counts.  Layout
    steps break weight ties by position in this list; the order is that
    of a [Hashtbl] keyed by destination, filled as each arc was first
    counted. *)

val in_arcs : t -> int -> (Cfg.label * int) list array
(** Incoming intra-function arcs for every block of the function. *)

val iter_arcs : t -> int -> (Cfg.label -> Cfg.label -> int -> unit) -> unit
(** [iter_arcs t fid f] calls [f src dst count] for every intra-function
    arc of the function with a nonzero count. *)

val call_sites_of : t -> int -> (Cfg.label * int * int) list
(** Executed call sites in the function, by ascending block:
    [(block, callee fid, count)]. *)

val fold_sites : t -> (int -> Cfg.label -> int -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold_sites t f init] folds [f caller block callee count] over every
    call site of the program with a nonzero count. *)

(** {2 Setters}

    For profiles assembled from outside counts (the layout service's
    uploads) and for tests that corrupt a profile on purpose.  A
    profile that [Placement.Pipeline.run] returned is never mutated. *)

val set_block_weight : t -> int -> Cfg.label -> int -> unit
val set_func_weight : t -> int -> int -> unit

val set_arc_weight : t -> int -> Cfg.label -> Cfg.label -> int -> unit
(** Raises [Invalid_argument] unless [dst] is a CFG successor of [src]. *)

val set_site_weight :
  t -> caller:int -> block:Cfg.label -> callee:int -> int -> unit
(** Raises [Invalid_argument] unless [block] ends in a call to [callee]. *)
