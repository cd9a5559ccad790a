(** Distributed breadth-first search as an {!Lbcc_net.Engine} vertex
    program: unweighted single-source distances and a BFS tree, in any of
    the broadcast models.

    In Broadcast CONGEST this takes [O(D)] rounds for hop-diameter [D]; in
    the Broadcast Congested Clique every vertex hears the wave after one
    hop of the clique topology.  Used as context for the paper's intro
    comparison of SSSP complexities. *)

type result = {
  dist : int array;  (** hop distance, [max_int] if unreachable *)
  parent : int array;  (** BFS-tree parent, [-1] at the root/unreachable *)
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
  source:int ->
  unit ->
  result
(** The program under the delivery tier [reliability] selects (default
    [None]), dispatched by {!Lbcc_net.Tier.run}:

    - [None]: the raw engine.  Injected faults hit the protocol directly.
    - [Crash_safe]: behind {!Lbcc_net.Reliable}, exactly-once delivery
      over a lossy engine; retransmission cost under
      ["bfs/retransmit"].  Only this tier reads [patience]; every
      tier rejects [patience < 1].
    - [Byzantine_safe]: behind {!Lbcc_net.Byzantine}, echo-quorum
      delivery tolerating [f < n/3] equivocating vertices; quorum
      overhead under ["bfs/byz-echo"] and the diagnostics in
      [result.byz].  Needs the clique model.

    On the [None] tier dropped announcements never arrive and tampered
    distances are believed.
    @raise Invalid_argument on [Byzantine_safe] with an [Input_graph]
    model, or on [patience < 1]. *)
