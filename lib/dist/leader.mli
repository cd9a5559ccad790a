(** Leader election by min-id flooding.

    The primitive behind Algorithm 6's "declare the vertex with the highest
    ID the leader": in the Broadcast Congested Clique one round suffices;
    in Broadcast CONGEST the extremal id floods in diameter rounds.  We
    elect the *minimum* id (any fixed extremum works). *)

type result = {
  leader : int;
  rounds : int;
  supersteps : int;
      (** virtual (inner) supersteps: the lossless count on every tier *)
  converged : bool;  (** [false] iff truncated by the superstep cap *)
  byz : Lbcc_net.Byzantine.Diag.t option;
      (** quorum diagnostics, [Some] exactly on the [Byzantine_safe] tier *)
}

val run :
  ?accountant:Lbcc_net.Rounds.t ->
  ?faults:Lbcc_net.Fault.t ->
  ?patience:int ->
  ?reliability:Lbcc_net.Model.reliability ->
  model:Lbcc_net.Model.t ->
  graph:Lbcc_graph.Graph.t ->
  unit ->
  result
(** The program under the delivery tier [reliability] selects (default
    [None]), dispatched by {!Lbcc_net.Tier.run}:

    - [None]: the raw engine.  Injected faults hit the protocol directly.
    - [Crash_safe]: behind {!Lbcc_net.Reliable}, exactly-once delivery
      over a lossy engine; retransmission cost under
      ["leader/retransmit"].  Only this tier reads [patience]; every
      tier rejects [patience < 1].
    - [Byzantine_safe]: behind {!Lbcc_net.Byzantine}, echo-quorum
      delivery tolerating [f < n/3] equivocating vertices; quorum
      overhead under ["leader/byz-echo"] and the diagnostics in
      [result.byz].  Needs the clique model.

    A tampered delivery forges an id below every honest one, which the
    [None] tier believes and the quorum tier rejects.

    On a clean converged run all vertices agree on the returned leader
    (asserted internally); under faults the crashed vertices may retain
    stale views and the assertion is skipped.
    @raise Invalid_argument on a disconnected graph under the
    [Input_graph] topology, on [Byzantine_safe] with it, or on
    [patience < 1]. *)
