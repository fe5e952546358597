(** Shared experiment context: per benchmark, the placement pipeline, the
    recorded traces, derived address maps (one memoized table covering
    every registered layout strategy), and memoized cache simulation
    results — computed lazily and at most once, since every table draws
    on the same artifacts. *)

type entry
(** One benchmark's lazily built artifacts and memo tables, guarded by
    its own mutex. *)

type t = entry list

val create :
  ?scale:int ->
  ?memo_cap:int ->
  ?names:string list ->
  unit ->
  t
(** Default: the full ten-benchmark suite at scale 1, recording traces
    straight into the compressed store ({!Sim.Trace.record}).  [scale]
    > 1 substitutes the scaled-up workload variants of
    {!Workloads.Registry.suite}.

    [memo_cap] (default unbounded, right for one-shot CLI runs) bounds
    each entry's simulation memo with LRU eviction — what a
    long-running service sets so its resident contexts cannot grow
    without bound.  Evictions are counted in {!evictions} and
    {!memo_evictions}.  It must be [>= 1] ([Invalid_argument]
    otherwise).  The strategy-map table needs no cap: its keys are
    registered strategy ids. *)

val entries : t -> entry list

val map_entries : (entry -> 'a) -> t -> 'a list
(** [List.map f (entries t)], fanned out across the default
    {!Placement.Pool} when one with more than one lane is set.  Results
    come back in entry order, and every memoized getter is safe to call
    from [f] on any domain (each entry serializes its own construction
    behind a mutex), so experiments built on this are bit-identical to
    their serial runs. *)

val find : t -> string -> entry
(** Raises [Workloads.Registry.Unknown_benchmark]. *)

val bench : entry -> Workloads.Bench.t
val name : entry -> string

val evictions : entry -> int
(** Memoized simulation results this entry dropped by its [memo_cap];
    per-context state, live even with the metrics registry off — what a
    resident service reports in its own stats. *)

val pipeline : entry -> Placement.Pipeline.t
val pipeline_noinline : entry -> Placement.Pipeline.t
val trace : entry -> Sim.Trace.t
val original_trace : entry -> Sim.Trace.t
val optimized_map : entry -> Placement.Address_map.t
val natural_map : entry -> Placement.Address_map.t

val original_map : entry -> Placement.Address_map.t
(** Natural layout of the pre-inlining program: the fully unoptimized
    baseline.  Memoized. *)

val strategy_map : entry -> Placement.Strategy.t -> Placement.Address_map.t
(** Address map of the inlined program under a registered layout
    strategy, via {!Placement.Pipeline.map_for}.  Memoized per strategy
    id; for {!Placement.Strategy.impact} / {!Placement.Strategy.natural}
    the returned map is physically the pipeline's own.

    A strategy that raises never aborts the caller: the failure is
    recorded as a [Strategy]-stage warning on the entry and the natural
    layout is substituted — check {!fell_back} / {!warnings}. *)

val warnings : entry -> Ir.Diag.t list
(** Degradation warnings recorded so far, oldest first. *)

val fell_back : entry -> string -> bool
(** [fell_back e id]: did {!strategy_map} substitute the natural layout
    for strategy [id] because it raised? *)

val scaled_map : entry -> float -> Placement.Address_map.t
(** Address map for the code-scaling experiment (Table 9): the inlined
    program scaled by the factor and re-laid-out with the same trace
    selection and orderings.  Memoized per factor. *)

val simulate :
  entry ->
  Icache.Config.t ->
  Placement.Address_map.t ->
  Sim.Trace.t ->
  Sim.Driver.result
(** Trace-driven simulation, memoized per (map, trace, config) in a
    hashtable keyed on interned map/trace ids: design points shared
    between tables are simulated exactly once and lookups stay O(1) no
    matter how many results accumulate.  Maps and traces are keyed by
    physical identity — use the memoized getters above so repeated calls
    share one map. *)

val simulate_many :
  entry ->
  Icache.Config.t list ->
  Placement.Address_map.t ->
  Sim.Trace.t ->
  Sim.Driver.result list
(** Like {!simulate} for several configurations at once: every uncached
    configuration is simulated in a single pass over the trace via
    {!Sim.Driver.simulate_many}. *)

(** {2 Telemetry} *)

val memo_hits : Obs.Metrics.counter
(** Simulation results served from the memo table. *)

val memo_misses : Obs.Metrics.counter
(** Simulation cache misses (filled by the single-pass engine). *)

val strategy_fallbacks : Obs.Metrics.counter
(** Strategies that raised and degraded to the natural layout. *)

val memo_evictions : Obs.Metrics.counter
(** Memoized simulation results dropped by the LRU cap, across every
    context of the process. *)
