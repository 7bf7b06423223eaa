(** A minimal JSON value, serialiser and parser.

    The toolchain has no JSON dependency; this module is the whole story
    for every machine-readable surface: emission ([codar_cli map --json],
    [codar_cli batch], [bench perf --json]) and, since the service layer,
    parsing (daemon request frames, cache persistence files). The emitter
    produces RFC 8259-conformant text; the parser accepts exactly one
    value per string. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite floats serialise as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** [indent] (default 2) spaces per nesting level; [indent = 0] gives
    compact single-line output. *)

val to_buffer : ?indent:int -> Buffer.t -> t -> unit
(** {!to_string} appended to a buffer. *)

val pp : Format.formatter -> t -> unit
(** [to_string ~indent:2], for [%a]. *)

val output : out_channel -> t -> unit
(** Serialise with a trailing newline. *)

val equal : t -> t -> bool
(** Structural equality; [Int i] and [Float f] compare equal when
    [float_of_int i = f] (the parser cannot tell ["1"] emitted from
    [Float 1.] apart from [Int 1]). Object field {e order} is significant —
    the emitter is deterministic, so round-trips preserve it. *)

val parse : string -> (t, string) result
(** Parse one JSON value ([Error] carries offset + message). Numbers
    lex as [Int] when they are integral literals in range (no [.]/[e]),
    else [Float]; BMP [\u] escapes, exactly four hex digits each, decode
    to UTF-8. Raw control characters inside strings are rejected, as is
    trailing garbage.
    Nesting deeper than 256 levels is rejected with a parse error, so
    hostile input cannot overflow the stack. *)

(** {2 Accessors}

    Small total helpers for decoding; [None] on shape mismatch.
    [to_float_opt] accepts [Int] (JSON cannot distinguish [2.0] from
    [2] once emitted). *)

val member : string -> t -> t option
val to_string_opt : t -> string option
val to_int_opt : t -> int option
val to_float_opt : t -> float option
val to_list_opt : t -> t list option
val to_bool_opt : t -> bool option
