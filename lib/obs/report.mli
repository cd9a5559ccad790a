(** Machine-readable benchmark reports ([BENCH_<EXP>.json]).

    Every experiment of the harness reduces to theorem-conformance claims:
    a measured quantity, the paper's claimed bound (with its big-O constant
    made explicit), and the comparison direction.  This module fixes the
    schema so the emitter (bench), the validator (CLI, CI) and the tests
    agree on one shape, versioned under the ["schema"] key.

    Schema [lbcc-bench/1]:
    {v
    { "schema": "lbcc-bench/1",
      "experiment": "E1",
      "title": "...",
      "within_bound": true,              // conjunction over claims
      "claims": [
        { "name": "stretch ER(0.3) k=2",
          "measured": 3.0,
          "claimed_bound": 3.0,
          "direction": "<=",             // or ">="
          "within_bound": true } ],
      "phases": [                         // may be empty
        { "label": "sparsify/spanner-...", "rounds": 12, "bits": 480 } ],
      ... }                               // experiment-specific extras
    v} *)

type direction = Le | Ge

type claim = {
  name : string;
  measured : float;
  claimed_bound : float;
  direction : direction;
}

type phase = { label : string; rounds : int; bits : int }

type t = {
  experiment : string;  (** "E1" .. "E16" *)
  title : string;
  claims : claim list;
  phases : phase list;  (** per-phase round+bit breakdown, label paths *)
  extra : (string * Json.t) list;  (** appended verbatim to the object *)
}

val claim :
  ?direction:direction -> name:string -> measured:float -> bound:float -> unit ->
  claim
(** [direction] defaults to [Le] (measured must not exceed the bound). *)

val within : claim -> bool
(** Bound satisfied, with a 1e-9 relative slack for float round-off. *)

val all_within : t -> bool

val to_json : t -> Json.t

val validate : Json.t -> (unit, string) result
(** Schema-shape check: version tag, required keys, claim and phase field
    types, and consistency of the [within_bound] aggregates. *)

val filename : t -> string
(** ["BENCH_<experiment>.json"]. *)

val write : dir:string -> t -> string
(** Write the pretty-printed report to [dir/filename], creating [dir] and
    its parents when missing; returns the path. *)
