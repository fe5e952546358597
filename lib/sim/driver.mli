(** Trace-driven simulation driver: replays a block source through an
    address map into cache configurations, computing the paper's
    metrics. *)

type source = (int -> Ir.Cfg.label -> unit) -> unit
(** A re-walkable stream of executed blocks: calling a source with a
    block consumer plays every [(fid, label)] in execution order.  Any
    stored trace is a source ({!Trace.source}); so is the VM itself
    ({!simulate_stream}). *)

type result = {
  config : Icache.Config.t;
  accesses : int;
  misses : int;
  words_fetched : int;
  miss_ratio : float;
  traffic_ratio : float;
  avg_fetch_words : float;  (** Table 8 [avg.fetch] *)
  avg_exec_insns : float;  (** Table 8 [avg.exec] *)
  eat_blocking : float;  (** effective access time, cycles per fetch *)
  eat_streaming : float;
  eat_streaming_partial : float;
}

val simulate :
  ?timing_model:Icache.Timing.model ->
  Icache.Config.t ->
  Placement.Address_map.t ->
  Trace.t ->
  result
(** Word-granular reference engine: one {!Icache.Cache.access} per
    instruction fetch.  Kept as the oracle for differential tests. *)

val simulate_stream :
  ?timing_model:Icache.Timing.model ->
  ?fuel:int ->
  Icache.Config.t list ->
  Placement.Address_map.t ->
  Ir.Prog.program ->
  Vm.Io.input ->
  result list * Vm.Interp.result
(** Fused VM→cache engine: one interpreter execution pushes its block
    stream straight into every configuration's simulation state, with no
    materialized trace.  Always serial (the point is the single walk);
    results are bit-identical to recording a trace and replaying it. *)

val simulate_many :
  ?timing_model:Icache.Timing.model ->
  Icache.Config.t list ->
  Placement.Address_map.t ->
  Trace.t ->
  result list
(** Block-granular fast path: walks the trace once and advances every
    configuration's cache, timers and run bookkeeping in the same pass,
    using {!Icache.Cache.access_run} (one tag probe per cache block
    touched).  Bit-identical to running {!simulate} per configuration.

    When a default {!Placement.Pool} with more than one lane is set, the
    configuration list is partitioned into contiguous chunks (one per
    lane) simulated on separate domains; results are concatenated back
    in input order, so the output is bit-identical to the serial sweep.
    Each chunk re-walks the trace. *)

val simulate_many_serial :
  ?timing_model:Icache.Timing.model ->
  Icache.Config.t list ->
  Placement.Address_map.t ->
  Trace.t ->
  result list
(** The single-domain sweep {!simulate_many} partitions over; walks the
    trace exactly once and ignores the default pool. *)
