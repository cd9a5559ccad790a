(** Graph generators for the experiment workloads.

    Every generator takes an explicit PRNG for reproducibility.  Weighted
    variants draw integer weights uniformly in [\[1, w_max\]] (the paper's
    algorithms assume polynomially bounded integral weights); [w_max = 1]
    gives the unweighted case. *)

open Lbcc_util

val erdos_renyi_connected : Prng.t -> n:int -> p:float -> w_max:int -> Graph.t
(** G(n, p) plus a random Hamiltonian cycle, guaranteeing connectivity while
    keeping the edge distribution ER-like. *)

val complete : ?w_max:int -> Prng.t -> n:int -> Graph.t

val ring : ?w_max:int -> Prng.t -> n:int -> Graph.t

val grid : ?w_max:int -> Prng.t -> rows:int -> cols:int -> Graph.t
(** 2D grid (mesh). *)

val torus : ?w_max:int -> Prng.t -> rows:int -> cols:int -> Graph.t

val barbell : ?w_max:int -> Prng.t -> clique:int -> path:int -> Graph.t
(** Two [clique]-cliques joined by a [path]-edge path: the classical
    bad case for cut-based sparsification and conditioning. *)

val random_geometric : Prng.t -> n:int -> radius:float -> w_max:int -> Graph.t
(** Uniform points in the unit square; edges within [radius], weight scaled
    from distance.  A spanning structure is added if disconnected. *)

val delta :
  ?w_max:int ->
  ?connected:bool ->
  Prng.t ->
  graph:Graph.t ->
  inserts:int ->
  deletes:int ->
  reweights:int ->
  unit ->
  Graph.Delta.t
(** Random normalized delta against [graph]: [inserts] fresh edges,
    [deletes] distinct existing ids, [reweights] redrawn weights (all
    weights uniform in [\[1, w_max\]]).  With [~connected:true], delete sets
    that would disconnect the applied graph are rejection-sampled away
    (falling back to a delete-free delta), so update benchmarks always feed
    the solver connected inputs. *)
