(** Dependency-free JSON tree, emitter and parser.

    The observability layer writes machine-readable artifacts ([BENCH_*.json],
    [--json] CLI reports, trace dumps) that downstream tooling diffs across
    runs, so the encoding must be strict and deterministic: object keys are
    emitted in the order given, floats print with enough digits to round-trip
    an IEEE double, and non-finite floats are rejected rather than smuggled
    out as the invalid tokens [nan] / [inf].

    Numbers keep the [Int] / [Float] distinction through a round-trip: floats
    always print with a ['.'] or exponent, and number tokens containing
    neither parse back as [Int]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} with a position-annotated message. *)

val to_string : ?pretty:bool -> t -> string
(** Serialize.  [pretty] (default [false]) indents with two spaces.
    @raise Invalid_argument on a NaN or infinite {!Float}. *)

val of_string : string -> t
(** Parse a complete JSON document (trailing whitespace allowed).
    Handles string escapes including [\uXXXX] (surrogate pairs decode to
    UTF-8).  @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** [member key json] on an [Obj]; [None] on missing key or non-object. *)

val to_float : t -> float option
(** Numeric accessor: [Int] and [Float] both answer. *)
