(** Minimal JSON tree with an RFC 8259 emitter and a strict parser —
    just enough for the telemetry artifacts (Chrome traces, table-row
    reports, bench reports) and the tests that validate them, with no
    external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val float_repr : float -> string
(** The emitter's number form: the shortest decimal that
    [float_of_string] reads back to exactly [f] (integers keep a
    trailing [.0]); ["null"] for a non-finite [f]. *)

val to_string : t -> string
val to_channel : out_channel -> t -> unit

val to_file : string -> t -> unit
(** Write to [path] (truncating), with a trailing newline. *)

exception Parse_error of string

val default_max_depth : int
(** Default nesting-depth limit of the parser (512). *)

val parse_exn : ?max_depth:int -> ?max_bytes:int -> string -> t
(** Raises {!Parse_error} on malformed input or trailing garbage.

    Hardened against adversarial input: nesting deeper than [max_depth]
    (default {!default_max_depth}) fails instead of risking a stack
    overflow, and — when [max_bytes] is given — input longer than that
    fails before any parsing work. *)

val parse : ?max_depth:int -> ?max_bytes:int -> string -> (t, string) result
val of_file : string -> (t, string) result

val member : string -> t -> t option
(** Field of an [Obj]; [None] for other constructors or missing keys. *)

val to_list : t -> t list option
