(** Trace store: a run-length/delta-compressed block trace.

    Consecutive executed blocks very often have consecutive packed
    codes, so the trace is stored as runs; and loops make the run
    sequence itself repetitive, so equal-shaped consecutive runs
    collapse into one record — the zigzag delta of each run's base from
    the previous run's last code, with two flag bits marking an
    optional length field (single-block runs pay nothing) and an
    optional repeat count (non-repeating runs pay nothing).  Decoding
    reproduces the exact packed-code sequence, so replay is
    bit-identical to the buffered {!Trace_gen} recording (kept as the
    test oracle) at a small fraction of the resident bytes. *)

open Ir

type t = {
  data : Bytes.t;  (** varint run tokens *)
  runs : int;
  nblocks : int;
  result : Vm.Interp.result;
}

(** {2 Construction} *)

type builder

val builder : unit -> builder

val push : builder -> int -> unit
(** Append one packed block code (see {!Trace_gen.pack}). *)

val push_block : builder -> int -> Cfg.label -> unit
(** [push_block b fid label]: a {!Trace_gen.sink} over {!push}. *)

val finish : builder -> Vm.Interp.result -> t

val record : ?fuel:int -> Prog.program -> Vm.Io.input -> t
(** Fused recording: the VM streams blocks straight into the compressing
    builder ({!Trace_gen.stream}), so peak trace residency is the
    compressed size — no raw vector ever exists.  Updates the [trace.*]
    gauges when metrics are enabled.  Raises {!Trace_gen.Too_many_blocks}
    like {!Trace_gen.record}. *)

val of_trace_gen : Trace_gen.t -> t
(** Compress an already-buffered trace (same codes, same order). *)

(** {2 Replay} *)

val iter_runs : (code:int -> len:int -> unit) -> t -> unit
(** Decoded runs in order: [len] consecutive packed codes starting at
    [code]. *)

val iter_blocks : (int -> Cfg.label -> unit) -> t -> unit
(** Every executed block as [(fid, label)], identical to the sequence
    that was pushed. *)

val source : t -> (int -> Cfg.label -> unit) -> unit
(** The trace as a re-walkable block source ({!Driver.source}). *)

(** {2 Accessors} *)

val result : t -> Vm.Interp.result
val dyn_blocks : t -> int
val dyn_insns : Placement.Address_map.t -> t -> int

type stats = {
  st_runs : int;  (** maximal sequential-code runs *)
  st_blocks : int;
  st_raw_bytes : int;  (** buffered footprint (8 bytes/block) *)
  st_stored_bytes : int;  (** compressed bytes actually held *)
}

val stats : t -> stats
