(** Statistics helpers of the benchmark: medians, tail percentiles and
    span self time.  Pure functions over plain values, so they are unit
    tested on their own. *)

val median : float list -> float
(** Middle value; the mean of the two middle values for an even count.
    Raises [Invalid_argument] on an empty list. *)

type tail = {
  pct : float;  (** the percentile reported, e.g. [99.] *)
  value : float;  (** nearest-rank value at [pct] *)
  beyond : int;  (** samples above that rank: always ten *)
  n : int;  (** sample count *)
}

val tail : float list -> tail option
(** The highest percentile that leaves at least ten samples beyond its
    nearest rank: rank [n - 10], percentile [100 (n - 10) / n] — p99
    for 1000 samples, p99.9 for 10000.  [None] with fewer than 20
    samples, where that percentile would fall below the median. *)

type span = {
  name : string;
  start : float;
  dur : float;
  depth : int;  (** nesting depth, 0 = root *)
}
(** One completed span of a single, properly nested timeline. *)

val self_times : span list -> float list
(** Per span, in input order: its duration minus the part of its
    interval that its direct children cover. *)

val attribute :
  key:(int -> string option) -> span list -> (string * float) list
(** Self time summed per key, where [key i] names the key of the [i]th
    span of the list.  A span whose key is [None] hands its self time to
    the nearest ancestor that has a key (dropped when there is none).
    Keys come back sorted. *)
