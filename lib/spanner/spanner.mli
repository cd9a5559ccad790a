(** Spanners with probabilistic edges (Section 3.1 of the paper).

    [run] computes, in the simulated Broadcast CONGEST model, a partition of
    a subset [F = F+ ⊔ F-] of the edges such that each tried edge [e] lands
    in [F+] independently with probability [p_e], and [S = (V, F+)] is a
    [(2k-1)]-spanner of [(V, F+ ∪ E'')] for every [E'' ⊆ E \ F]
    (Lemma 3.1).  With [p ≡ 1] the algorithm is exactly Baswana–Sen
    (Appendix A) and [F- = ∅].

    The implementation is a vertex program: every decision of vertex [v]
    reads only [v]'s local state and the broadcasts of its neighbors, and
    every broadcast is charged to the round accountant at its bit size.
    Each vertex records its own view of [F+] and [F-]; the paper's
    implicit-communication argument says the two endpoints' views always
    agree, and [run] verifies this ([views_agree]).

    What a vertex knows about an incident edge [e] lives in per-run arrays
    indexed by endpoint slot [2e + side], where side [0] is [e]'s endpoint
    [u] and side [1] its endpoint [v]: every (vertex, incident edge) pair
    is one of its edge's two endpoints. *)

open Lbcc_util
module Graph = Lbcc_graph.Graph

type result = {
  fplus : int list;  (** spanner edge ids, ascending *)
  fminus : int list;  (** rejected (non-existing) edge ids, ascending *)
  orientation : (int * int) array;
      (** for each [fplus] edge in order, [(from, to_)]: the edge is charged
          to the out-degree of [from] (Lemma 3.1's orientation) *)
  clusters : int option array;  (** final cluster (center id) per vertex *)
  rounds : int;  (** Broadcast CONGEST rounds charged for this call *)
  supersteps : int;
  views_agree : bool;
      (** both endpoints of every tried edge classified it identically —
          the correctness of the paper's implicit communication *)
}

(** {2 Edge state}

    One run of the sparsifier pipeline ({!Lbcc_sparsifier.Sparsify},
    {!Lbcc_sparsifier.Apriori}) keeps its per-edge state here, over the
    input graph's edge ids, and runs every spanner of every bundle on it. *)

type state = {
  graph : Graph.t;  (** the input graph, which fixes the edge ids *)
  weight : float array;  (** current weight per edge *)
  p : float array;  (** survival probability per edge *)
  live : bool array;
      (** edges the next spanner may try; a spanner sees exactly the
          subgraph of live edges *)
  tail : int array;
      (** orientation tail per edge: [-1] until the edge first enters
          [F+], then the vertex it is charged to, for the state's life *)
}

val state : graph:Graph.t -> p:float array -> state
(** Fresh state: the graph's weights, a copy of [p], every edge live, no
    tail.
    @raise Invalid_argument as {!run} does for [p] and [graph]. *)

val run_on : ?accountant:Lbcc_net.Rounds.t -> prng:Prng.t -> k:int -> state -> result
(** One spanner over the live edges of the state, with their current
    weights and survival probabilities.  Sets the tail of every edge that
    enters [F+] for the first time; [orientation] reports the tails, so an
    edge accepted by an earlier run keeps its earlier orientation.  Leaves
    [live], [p] and [weight] as they are.
    @raise Invalid_argument if [k < 1]. *)

val run :
  prng:Prng.t ->
  graph:Graph.t ->
  p:float array ->
  k:int ->
  unit ->
  result
(** [run ~prng ~graph ~p ~k ()] with [p.(e)] the survival probability of edge
    [e] and stretch parameter [k >= 1]: {!run_on} over a fresh {!state}.
    @raise Invalid_argument if [p] has the wrong length, a probability is
    outside [\[0,1\]] or NaN, [k < 1], or [graph] has parallel edges. *)

val out_degrees : Graph.t -> result -> int array
(** Out-degree per vertex under the result's orientation. *)
