(** Spectral sparsification in the Broadcast CONGEST model
    (Algorithm 5, [SpectralSparsify]; Theorem 1.2).

    Repeatedly computes t-bundle spanners with ad-hoc ("on the fly") edge
    sampling, quartering the survival probability and quadrupling the weight
    of every surviving non-bundle edge, and finally samples the leftover
    probabilistic edges locally at the lower-id endpoint.

    Parameters default to the paper's asymptotic settings
    ([k = ceil(log2 n)], [iterations = ceil(log2 m)]) with the bundle size
    [t = ceil(0.05 * ceil(log2 n)^2 / eps^2)]: the paper's constant 400 in
    place of [0.05] certifies the w.h.p. guarantee but produces sparsifiers
    denser than any feasible input; experiments certify quality a posteriori
    with {!Certify} instead (see DESIGN.md, substitution 3).  Callers that
    need another bundle size pass [t] itself. *)

open Lbcc_util
module Graph = Lbcc_graph.Graph

type result = {
  sparsifier : Graph.t;
      (** the reweighted subgraph [H]; edge ids are fresh *)
  edge_origin : int array;
      (** original edge id of each sparsifier edge *)
  orientation : (int * int) array;
      (** per sparsifier edge, [(from, to)] with the edge charged to [from]
          (Theorem 1.2's bounded out-degree orientation) *)
  rounds : int;  (** Broadcast CONGEST rounds charged *)
  bundle_sizes : int list;  (** bundle size per iteration *)
  final_sampled : int;  (** leftover probabilistic edges kept at the end *)
}

val default_k : n:int -> int
val default_iterations : m:int -> int
val default_t : n:int -> epsilon:float -> int

val run :
  ?accountant:Lbcc_net.Rounds.t ->
  ?k:int ->
  ?t:int ->
  prng:Prng.t ->
  graph:Graph.t ->
  epsilon:float ->
  unit ->
  result
(** A multigraph input (e.g. a {!Graph.Delta}-accumulated graph where an
    insert duplicated an endpoint pair) is coalesced first; [edge_origin]
    then refers to the coalesced graph's edge ids.  Simple inputs are
    untouched, bit-identically.
    @raise Invalid_argument on an [epsilon] that is not positive (NaN
    included) or an empty graph. *)

val out_degrees : result -> int array
(** Out-degree profile of the orientation, indexed by vertex. *)

(** {2 Incremental sketches}

    A {!sketch} maintains a spectral sparsifier of a mutating graph.
    {!update} applies a {!Graph.Delta}: sketch edges whose endpoints are
    untouched by the delta pass through verbatim, while the delta's vertex
    neighborhoods — the bundles the changed edges lived in — are
    re-sparsified from the exact accumulated edges.  For a small delta the
    hit region is [O(|delta| * avg_degree)] edges, so the update costs far
    fewer broadcast rounds than re-running {!run} on the whole graph.
    Pass-through errors compose multiplicatively across generations (the
    Kyng–Pachocki–Peng–Sachdeva resparsification regime behind Thm 3.4);
    callers certify quality a posteriori with {!Certify} against
    [sketch.base], exactly as the static pipeline does. *)

type sketch = {
  base : Graph.t;  (** the accumulated (post-delta) graph *)
  sparsifier : Graph.t;  (** current spectral sketch of [base] *)
  epsilon : float;  (** target quality per (re-)sampling step *)
  generation : int;  (** number of updates applied *)
  resampled : int;  (** accumulated edges fed to the last re-sampling *)
  passed : int;  (** sketch edges passed through untouched last update *)
  last_rounds : int;  (** rounds charged by the last build/update *)
  total_rounds : int;  (** rounds charged across the sketch's life *)
}

val sketch :
  prng:Prng.t ->
  graph:Graph.t ->
  epsilon:float ->
  unit ->
  sketch
(** Build the initial sketch with {!run} at the default [k] and [t]. *)

val update :
  ?accountant:Lbcc_net.Rounds.t ->
  prng:Prng.t ->
  sketch ->
  Graph.Delta.t ->
  sketch
(** Apply one delta.  Charges, under phase [update]: the delta announcement
    broadcasts ([update/delta/announce], one op per superstep from the
    busiest announcing vertex) and a {!run} over the coalesced hit region
    ([update/sparsify/*]).  A pure function of [(sketch, delta, prng)] —
    bit-identical at any domain count.
    @raise Invalid_argument if the delta references an edge id [>= m] of
    [sketch.base]. *)
