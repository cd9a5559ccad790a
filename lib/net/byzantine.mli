(** Echo-quorum reliable broadcast: the [Byzantine_safe] delivery tier.

    Wraps an {!Engine} vertex program so that every virtual round of the
    inner protocol is delivered through a BV-broadcast-style echo/accept
    exchange (Bracha 1987) tolerating [f < n/3] corrupting or equivocating
    vertices on the broadcast congested clique.  One virtual round expands
    into two cycles of three lockstep supersteps:

    + {b SEND} — every vertex broadcasts its inner payload (and ingests the
      previous cycle's repairs);
    + {b ECHO} — every vertex broadcasts a digest vote for each payload it
      holds, plus its own.  A receiver holding a tampered copy thereby
      dissents in public: the dissenting echo doubles as the broadcast
      model's lazy {e pull request};
    + {b REPAIR} — votes are tallied.  A digest with a {b strong quorum}
      ([>= 2f+1] votes, [f = floor((n-1)/3)]) is accepted by every vertex
      whose copy matches it; a {b weak quorum} ([>= f+1] votes, hence at
      least one honest voucher) licenses holders of the backed value to
      re-broadcast it, and mismatched receivers to adopt the served copy.

    The quorum argument (DESIGN.md §9): [n >= 3f+1] honest vertices number
    [>= 2f+1], so the true digest of an honest broadcast always reaches a
    strong quorum once repairs have propagated, while [f] coordinated liars
    reach at most [f < f+1] votes — they can neither fabricate a weak
    quorum nor starve an honest one.  At [f >= n/3] the honest population
    drops below [2f+1] and strong quorums become unreachable: the failure
    is {e detectable}, reported through [quorum_failures] and the
    suspicion set rather than as silent corruption.

    The schedule is a pure function of the global superstep index, so the
    layer is deterministic at any {!Lbcc_util.Pool} size; [?faults] coins
    are the only source of adversity and are themselves seeded.  Slots that
    exhaust every cycle without a strong quorum are counted in
    [quorum_failures] and their subjects suspected (excluded) from then on.

    Cost: aggregate payload bits and one round per virtual superstep ride
    the caller's [label]; all remaining rounds — echo, repair and retry
    traffic — are charged under ["<label>/byz-echo"]. *)

(** The run's delivery diagnostics. *)
module Diag : sig
  type t = {
    virtual_supersteps : int;  (** inner-protocol supersteps completed *)
    echo_rounds : int;  (** rounds attributed to the quorum machinery *)
    quorum_failures : int;
        (** (virtual round, subject) slots that exhausted every cycle
            without a strong quorum — nonzero means delivery degraded
            detectably *)
    suspected : int list;
        (** vertices some honest vertex gave up on (ascending) *)
    repairs_served : int;  (** repair entries broadcast across the run *)
    tolerance_exceeded : bool;
        (** the fault plan fields more Byzantine vertices than
            [floor((n-1)/3)] — its conformance guarantee is void *)
  }

  val ok : t -> bool
  (** No quorum failures and the fault plan within [f < n/3]: the run's
      delivery guarantee held. *)

  val pp : Format.formatter -> t -> unit
end

type 'state result = {
  states : 'state array;
  stats : Engine.stats;  (** raw engine statistics of the expanded run *)
  diag : Diag.t;
}

val run :
  ?accountant:Rounds.t ->
  ?faults:Fault.t ->
  tamper:(salt:int -> 'msg -> 'msg) ->
  label:string ->
  max_supersteps:int ->
  model:Model.t ->
  graph:Lbcc_graph.Graph.t ->
  size_bits:('msg -> int) ->
  init:(int -> 'state) ->
  step:('state, 'msg) Engine.step ->
  unit ->
  'state result
(** Runs [step] under echo-quorum delivery.  The second cycle of each
    virtual round gives tampered copies one repair window;
    [max_supersteps] caps {e real} engine supersteps, so allow 6 per inner
    superstep.  [tamper] is the {e inner} payload transform handed to the
    engine for corruption/equivocation verdicts.
    @raise Invalid_argument on an [Input_graph] model (echo quorums need
    the clique). *)
