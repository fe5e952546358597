(** Typed metrics registry: counters, gauges and quantile histograms.

    Registration is idempotent per (name, kind); a cross-kind name
    collision raises [Invalid_argument].  All mutation operations are
    no-ops while the registry is disabled (the default), so a disabled
    instrument costs one load and branch.

    Histograms bucket observations into fixed log-scale bins
    (quarter-powers of two spanning 2^-40 .. 2^40 plus an overflow
    bucket), which makes {!hist_quantile} deterministic: the estimate
    is a pure function of the observed multiset, independent of
    observation order or domain scheduling, with relative error bounded
    by the bucket ratio 2^(1/4) (~19%).

    Empty-histogram semantics: with zero observations, {!hist_sum},
    {!hist_min}, {!hist_max}, {!hist_mean} and {!hist_quantile} all
    return [0.] — never infinity or NaN — and the text dump and JSON
    export render zeros for the same fields. *)

type counter
type gauge
type histogram

val set_enabled : bool -> unit
val enabled : unit -> bool

val counter : ?help:string -> string -> counter
val incr : ?by:int -> counter -> unit
val value : counter -> int

val gauge : ?help:string -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : ?help:string -> string -> histogram
val observe : histogram -> float -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_min : histogram -> float
val hist_max : histogram -> float
val hist_mean : histogram -> float

val hist_quantile : histogram -> float -> float
(** [hist_quantile h p] estimates the [p]-quantile ([p] clamped to
    [0,1]) as the upper boundary of the log-scale bucket containing
    rank [ceil (p * n)], clamped into [[hist_min h, hist_max h]].
    Returns [0.] on an empty histogram. *)

val reset : unit -> unit
(** Zero every registered value (bucket arrays included);
    registrations survive. *)

val clear : unit -> unit
(** Forget every registration (test isolation). *)

val dump : unit -> string
(** Deterministic text report, one line per metric, names sorted.
    Gauges print in {!Json.float_repr}'s round-trip form; histogram
    lines include p50/p90/p99 from {!hist_quantile}. *)

val to_json : unit -> Json.t
(** The registry as an [impact.metrics/v1] document: metrics sorted by
    name; histogram entries carry n/sum/min/mean/max/p50/p90/p99 (all
    zero when empty). *)

val write : string -> unit
(** Write {!dump} to a file, or to stderr when the path is ["-"]. *)
