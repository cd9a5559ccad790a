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
      (** for {!run_reliable}: virtual (inner) supersteps, matching the
          lossless count *)
  converged : bool;  (** [false] iff truncated by the superstep cap *)
}

val run :
  ?accountant:Lbcc_net.Rounds.t ->
  ?faults:Lbcc_net.Fault.t ->
  model:Lbcc_net.Model.t ->
  graph:Lbcc_graph.Graph.t ->
  source:int ->
  unit ->
  result
(** Distances agree with {!Lbcc_graph.Paths.dijkstra} (tested).  Tampered
    deliveries (see {!Lbcc_net.Fault}) shrink announced distances — the
    worst case for min-based relaxation — and are believed. *)

val run_byzantine :
  ?accountant:Lbcc_net.Rounds.t ->
  ?faults:Lbcc_net.Fault.t ->
  ?retries:int ->
  model:Lbcc_net.Model.t ->
  graph:Lbcc_graph.Graph.t ->
  source:int ->
  unit ->
  result * Lbcc_net.Byzantine.Diag.t
(** Same program behind {!Lbcc_net.Byzantine}: echo-quorum delivery
    tolerating [f < n/3] equivocating vertices, with the quorum overhead
    under the ["sssp/byz-echo"] accountant label.
    @raise Invalid_argument on a non-clique model. *)

val run_reliable :
  ?accountant:Lbcc_net.Rounds.t ->
  ?faults:Lbcc_net.Fault.t ->
  ?patience:int ->
  ?reliability:Lbcc_net.Model.reliability ->
  model:Lbcc_net.Model.t ->
  graph:Lbcc_graph.Graph.t ->
  source:int ->
  unit ->
  result
(** The program behind the delivery tier selected by [reliability]
    (default [Crash_safe]): [None] is {!run}, [Crash_safe] runs behind
    {!Lbcc_net.Reliable} (retransmission cost under ["sssp/retransmit"]),
    [Byzantine_safe] is {!run_byzantine} with the diagnostics dropped.
    [patience] applies to the [Crash_safe] tier only. *)
