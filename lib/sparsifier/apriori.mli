(** Reference sparsifier with a-priori sampling
    (Algorithm 4, [SpectralSparsify-Apriori]; Koutis–Xu with the fixed
    bundle size of Kyng et al.).

    This is the variant that is easy in CONGEST but not in broadcast models:
    each iteration samples the surviving edges up front (centrally, here)
    and runs deterministic-edge spanners ([p ≡ 1]).  Lemma 3.3 states its
    output distribution equals {!Sparsify.run}'s; experiment E4 compares
    the two empirically. *)

open Lbcc_util
module Graph = Lbcc_graph.Graph

type result = {
  sparsifier : Graph.t;
  edge_origin : int array;  (** original edge id per sparsifier edge *)
  bundle_sizes : int list;
}

val run :
  ?k:int ->
  ?t:int ->
  prng:Prng.t ->
  graph:Graph.t ->
  epsilon:float ->
  unit ->
  result
