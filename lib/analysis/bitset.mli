(** Compact mutable bitsets over a fixed universe [0 .. n-1], the value
    domain of the bit-vector dataflow framework.  All binary operations
    require both operands to share the same universe size. *)

type t

val create : int -> t
(** All-zeros set over a universe of the given size. *)

val universe : t -> int
val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val copy : t -> t
val assign : dst:t -> t -> unit
val equal : t -> t -> bool
val is_empty : t -> bool
val count : t -> int

val union_into : dst:t -> t -> bool
(** [dst := dst ∪ src]; returns whether [dst] changed. *)

val transfer : gen:t -> kill:t -> src:t -> dst:t -> bool
(** The dataflow transfer function [dst := gen ∪ (src \ kill)]; returns
    whether [dst] changed. *)

val iter : (int -> unit) -> t -> unit
(** Elements in increasing order. *)

val elements : t -> int list
