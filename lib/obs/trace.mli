(** Span-based tracer with hierarchical phase labels.

    A trace is a tree of spans.  Instrumented layers (the network engine, the
    sparsifier, the Laplacian solver, the IPM) open a span around a phase and
    record what that phase cost: simulated rounds, broadcast bits, engine
    supersteps, messages, and wall-clock time.  Wall-clock is measured
    {e inclusively} around the span body.  The numeric counters land on
    whichever span is open when {!add} is called; the accountant's
    [with_phase] adds each phase's inclusive round/bit delta to the phase's
    own span at close, so phase spans also read inclusively — a parent phase
    reports the cost of everything it contains — while a raw {!add} inside a
    child span stays on that child.

    Every entry point takes the tracer as an [option] so call sites can
    thread an optional [?tracer] argument straight through: [None] costs one
    branch and allocates nothing. *)

type t

type span = {
  name : string;
  mutable wall_ns : int;  (** inclusive wall-clock, nanoseconds *)
  mutable rounds : int;  (** inclusive simulated rounds *)
  mutable bits : int;  (** inclusive broadcast bits (per-superstep maxima) *)
  mutable supersteps : int;
  mutable messages : int;
  mutable attrs : (string * Json.t) list;
      (** free-form annotations for readers that build their own span
          trees; the library records none *)
  mutable children : span list;  (** in open order *)
}

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] returns seconds and defaults to {!Clock.now_s}, so [wall_ns]
    holds elapsed wall-clock time. *)

val span : t option -> string -> (unit -> 'a) -> 'a
(** [span tracer name f] runs [f] inside a fresh child span of the current
    span, timing it; exception-safe.  [span None name f] is just [f ()]. *)

val add : t option -> ?rounds:int -> ?bits:int -> ?supersteps:int ->
  ?messages:int -> unit -> unit
(** Add counters to the currently open span (the root when none is open). *)

val root : t -> span
(** The synthetic root span; its children are the top-level spans. *)

val to_json : t -> Json.t
(** The root span as JSON: [{name, wall_ns, rounds, bits, supersteps,
    messages, attrs, children}], children recursively. *)

val pp : Format.formatter -> t -> unit
(** Indented tree, one span per line. *)
