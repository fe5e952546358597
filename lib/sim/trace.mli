(** Unified trace store: one handle over the buffered ({!Trace_gen}) and
    run-length/delta-compressed ({!Ctrace}) trace representations.
    Replay is bit-identical across representations; the engine knob only
    moves the memory/bandwidth trade-off. *)

open Ir

type engine =
  | Buffered  (** record into an 8-byte-per-block vector (reference) *)
  | Streaming
      (** stream the VM's blocks straight into the compressing builder:
          the trace is born compressed and peak residency is the
          compressed size *)

val engine_name : engine -> string
val engine_of_string : string -> engine option

type t = Raw of Trace_gen.t | Packed of Ctrace.t

val record : ?engine:engine -> ?fuel:int -> Prog.program -> Vm.Io.input -> t
(** Execute and capture under the given engine (default [Streaming]).
    Updates the [trace.*] gauges when metrics are enabled. *)

val of_gen : Trace_gen.t -> t
val of_ctrace : Ctrace.t -> t
val engine_of : t -> engine

val result : t -> Vm.Interp.result
val dyn_blocks : t -> int
val dyn_insns : Placement.Address_map.t -> t -> int
val iter_blocks : (int -> Cfg.label -> unit) -> t -> unit

val source : t -> (int -> Cfg.label -> unit) -> unit
(** The trace as a re-walkable block source ({!Driver.source}). *)

type stats = {
  st_runs : int;  (** maximal sequential-code runs *)
  st_blocks : int;
  st_raw_bytes : int;  (** buffered footprint (8 bytes/block) *)
  st_stored_bytes : int;  (** what this representation actually holds *)
}

val stats : t -> stats
