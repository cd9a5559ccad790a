(** Directed flow networks with integral capacities and costs
    (Section 2.4). *)

open Lbcc_util

type arc = { src : int; dst : int; capacity : int; cost : int }

type t = {
  n : int;
  arcs : arc array;
  source : int;
  sink : int;
}

val make : n:int -> source:int -> sink:int -> arc list -> t
(** @raise Invalid_argument on out-of-range endpoints, self-loops,
    negative capacities or costs, or [source = sink]. *)

val m : t -> int

val max_capacity : t -> int
val max_cost : t -> int

val is_flow : ?tol:float -> t -> float array -> bool
(** Capacity bounds and conservation at every vertex except source/sink. *)

val flow_value : t -> float array -> float
(** Net flow out of the source. *)

val flow_cost : t -> float array -> float

val undirected_support : t -> Lbcc_graph.Graph.t
(** The underlying undirected (simple) graph, unit weights — the
    communication topology and the Laplacian-solver substrate. *)

val random : Prng.t -> n:int -> density:float -> max_capacity:int ->
  max_cost:int -> t
(** A random s-t network guaranteed to have positive max flow: random arcs
    at the given density plus a random source-to-sink path. *)

val layered : Prng.t -> layers:int -> width:int -> max_capacity:int ->
  max_cost:int -> t
(** A layered DAG (source, [layers] ranks of [width] vertices, sink) — the
    classical transportation-network shape. *)

val transportation :
  supplies:int array -> demands:int array -> costs:int array array -> t
(** The classical transportation problem as a flow network: a super-source
    feeding supply vertices, a super-sink draining demand vertices, and a
    complete bipartite middle with the given per-unit shipping [costs]
    ([costs.(i).(j)] from supplier [i] to consumer [j]).  When total supply
    equals total demand, the min-cost max-flow is the optimal shipping plan.
    @raise Invalid_argument on negative entries or shape mismatch. *)
