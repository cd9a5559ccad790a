(** Distributed Bellman–Ford: weighted single-source shortest paths as a
    vertex program in the broadcast models.

    Every superstep, each vertex whose tentative distance improved
    broadcasts it; the protocol stabilizes after at most [n - 1]
    broadcast-CONGEST supersteps — the classical [O(n)]-round baseline the
    paper's introduction contrasts with the [O~(sqrt n)] BCC algorithms
    ([Nan14]) and with this repository's flow-based machinery. *)

type result = {
  dist : float array;  (** [infinity] if unreachable *)
  parent : int array;  (** shortest-path-tree parent, [-1] at root *)
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
      ["sssp/retransmit"].  Only this tier reads [patience]; every
      tier rejects [patience < 1].
    - [Byzantine_safe]: behind {!Lbcc_net.Byzantine}, echo-quorum
      delivery tolerating [f < n/3] equivocating vertices; quorum
      overhead under ["sssp/byz-echo"] and the diagnostics in
      [result.byz].  Needs the clique model.

    Distances agree with {!Lbcc_graph.Paths.dijkstra} (tested).  Tampered
    deliveries (see {!Lbcc_net.Fault}) shrink announced distances — the
    worst case for min-based relaxation — and the [None] tier believes
    them.
    @raise Invalid_argument on [Byzantine_safe] with an [Input_graph]
    model, or on [patience < 1]. *)

val run_reliable :
  ?accountant:Lbcc_net.Rounds.t ->
  ?faults:Lbcc_net.Fault.t ->
  ?patience:int ->
  model:Lbcc_net.Model.t ->
  graph:Lbcc_graph.Graph.t ->
  source:int ->
  unit ->
  result
(** [run ~reliability:Crash_safe]. *)
