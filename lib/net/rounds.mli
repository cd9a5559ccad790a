(** Round accountant.

    Round complexity is the metric the paper proves bounds on, so it is a
    first-class runtime value here: every distributed routine threads an
    accountant and charges it for each communication superstep.  A superstep
    in which the largest broadcast is [s] bits costs [ceil(s/B)] rounds
    (the synchronous lockstep cost the paper uses, e.g. the
    "[1 + log W / log n] rounds" per spanner message).

    Charges carry string labels so experiments can report per-phase
    breakdowns.  Two orthogonal refinements on top of plain round counting:

    - {b bit accounting}: each charge may also record how many broadcast
      bits determined its cost (the per-superstep maximum message, i.e. the
      quantity the lockstep model divides by [B]); totals and per-label
      breakdowns are exposed alongside the round counts.
    - {b hierarchical labels}: {!with_phase} pushes a phase name onto a
      prefix stack, and every label charged inside is recorded under
      ["phase/label"].  Phases nest ("solve/preprocess/sparsify/...") and
      {!tree} folds the flat breakdown back into a parent/child tree.

    A phase additionally opens a {!Lbcc_obs.Trace} span when a tracer is
    attached ({!set_tracer}), recording the phase's inclusive round and bit
    deltas into the span. *)

type t

val create : bandwidth:int -> t
(** [create ~bandwidth:b] with [b >= 1] bits per message per round. *)

val bandwidth : t -> int

val set_tracer : t -> Lbcc_obs.Trace.t option -> unit
(** Attach (or detach) the tracer consulted by {!with_phase}. *)

val charge : ?bits:int -> t -> label:string -> rounds:int -> unit
(** Charge a fixed number of rounds, optionally recording the broadcast
    bits that produced them (defaults to 0: unknown). *)

val charge_broadcast : t -> label:string -> bits:int -> unit
(** One synchronous broadcast superstep whose largest message has [bits]
    bits: costs [max 1 (ceil(bits/B))] rounds and records [max 1 bits]
    broadcast bits. *)

val charge_vector : ?entries:int -> t -> label:string -> entry_bits:int -> unit
(** Exchange of a distributed vector: everyone broadcasts simultaneously, so
    the superstep costs the largest per-vertex message —
    [entries * entry_bits] bits, [max 1 (ceil(entries * entry_bits / B))]
    rounds.  [entries] is the number of coordinates {e each vertex} holds
    and defaults to 1 (the common "one coordinate per vertex" layout);
    callers exchanging [c] coordinates per vertex must pass [~entries:c] or
    the charge silently undercounts by a factor of [c]. *)

val rounds : t -> int
(** Total rounds charged so far. *)

val bits : t -> int
(** Total broadcast bits recorded so far (per-superstep maxima, i.e. the
    bits that determined the round cost — not the sum over all senders). *)

val breakdown : t -> (string * int) list
(** Rounds per full label path, in first-charge order.  Sums to {!rounds}. *)

val bits_breakdown : t -> (string * int) list
(** Bits per full label path, same order as {!breakdown}.  Sums to
    {!bits}. *)

val with_phase : t -> string -> (unit -> 'a) -> 'a
(** [with_phase t name f] prefixes every label charged by [f] with
    [name ^ "/"], nesting; exception-safe.  When a tracer is attached the
    phase also runs inside a trace span named [name] that receives the
    phase's inclusive round and bit deltas. *)

val with_phase_opt : t option -> string -> (unit -> 'a) -> 'a
(** {!with_phase} through an optional accountant; [None] just runs [f]. *)

val phase_path : t -> string
(** The currently open phase prefix, ["a/b"] style; [""] at top level. *)

type tree = { label : string; t_rounds : int; t_bits : int; children : tree list }

val tree : t -> tree list
(** The breakdown folded into a forest by splitting label paths on ['/'].
    An interior node aggregates its subtree (plus any charges made directly
    at its own path); siblings keep first-charge order. *)

val reset : t -> unit
(** Clears totals, per-label tallies and the phase hierarchy (open phases
    are forgotten: subsequent charges are unprefixed). *)

val checkpoint : t -> int
(** Current total, for measuring a subcomputation as a difference. *)

val checkpoint_bits : t -> int
