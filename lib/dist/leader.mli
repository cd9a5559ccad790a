(** Leader election by min-id flooding.

    The primitive behind Algorithm 6's "declare the vertex with the highest
    ID the leader": in the Broadcast Congested Clique one round suffices;
    in Broadcast CONGEST the extremal id floods in diameter rounds.  We
    elect the *minimum* id (any fixed extremum works). *)

type result = {
  leader : int;
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
  unit ->
  result
(** On a clean converged run all vertices agree on the returned leader
    (asserted internally); under faults the crashed vertices may retain
    stale views and the assertion is skipped.
    @raise Invalid_argument on a disconnected graph under the
    [Input_graph] topology. *)

val run_byzantine :
  ?accountant:Lbcc_net.Rounds.t ->
  ?faults:Lbcc_net.Fault.t ->
  ?retries:int ->
  model:Lbcc_net.Model.t ->
  graph:Lbcc_graph.Graph.t ->
  unit ->
  result * Lbcc_net.Byzantine.Diag.t
(** Same program behind {!Lbcc_net.Byzantine}: echo-quorum delivery
    tolerating [f < n/3] equivocating vertices — a tampered delivery
    forges an id below every honest one, which raw min-id flooding
    believes and the quorum tier rejects.  Overhead is charged under the
    ["leader/byz-echo"] accountant label.
    @raise Invalid_argument on a non-clique model. *)

val run_reliable :
  ?accountant:Lbcc_net.Rounds.t ->
  ?faults:Lbcc_net.Fault.t ->
  ?patience:int ->
  ?reliability:Lbcc_net.Model.reliability ->
  model:Lbcc_net.Model.t ->
  graph:Lbcc_graph.Graph.t ->
  unit ->
  result
(** The program behind the delivery tier selected by [reliability]
    (default [Crash_safe]): [None] is {!run}, [Crash_safe] runs behind
    {!Lbcc_net.Reliable} (retransmission cost under
    ["leader/retransmit"]), [Byzantine_safe] is {!run_byzantine} with the
    diagnostics dropped.  [patience] applies to the [Crash_safe] tier
    only. *)
