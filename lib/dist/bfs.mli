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
(** Raw engine run: injected faults (if any) hit the protocol directly —
    dropped announcements simply never arrive and tampered distances are
    believed. *)

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
    under the ["bfs/byz-echo"] accountant label.  The diagnostics say
    whether the delivery guarantee held.
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
    {!Lbcc_net.Reliable} (exactly-once delivery over a lossy engine,
    retransmission cost under ["bfs/retransmit"]), [Byzantine_safe] is
    {!run_byzantine} with the diagnostics dropped.  [patience] applies to
    the [Crash_safe] tier only. *)
