(** t-bundle spanners (Algorithm 3, [BundleSpanner]).

    A [t]-bundle spanner of stretch [2k-1] is a union [B = ∪ T_i] where each
    [T_i] is a spanner of [G \ ∪_{j<i} T_j].  With probabilistic edges, each
    spanner both builds [T_i] and definitively samples the edges it tried;
    [C] collects the rejected edges.

    The bundle is a loop over one {!Lbcc_spanner.Spanner.state}: each
    spanner runs on the live edges, and the edges it decides leave the live
    mask for the rest of the bundle. *)

open Lbcc_util

type result = {
  bundle : int list;  (** B: edge ids in the bundle, ascending *)
  rejected : int list;  (** C: edge ids sampled out of existence *)
}

val run :
  ?accountant:Lbcc_net.Rounds.t ->
  prng:Prng.t ->
  k:int ->
  t:int ->
  Lbcc_spanner.Spanner.state ->
  result
(** [run ~prng ~k ~t st] computes a [t]-bundle of [(2k-1)]-spanners on the
    live edges of [st].  On return the rejected edges are dead, the bundle
    edges are live with survival probability [1], every other live edge is
    untouched, and each bundle edge's orientation is its tail in [st]. *)
