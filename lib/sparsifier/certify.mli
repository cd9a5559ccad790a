(** A-posteriori spectral certificates for sparsifiers.

    The paper's guarantee (Definition 2.1) is
    [(1-eps) x^T L_H x <= x^T L_G x <= (1+eps) x^T L_H x] for all [x].
    For moderate [n] we verify this exactly: the extreme generalized
    eigenvalues of the pencil [(L_G, L_H)] are the tight constants.  For
    larger instances [probe] gives a cheap randomized necessary condition. *)

open Lbcc_util
module Graph = Lbcc_graph.Graph

type certificate = {
  lambda_min : float;  (** min over [x ⟂ nullspace] of [x^T L_G x / x^T L_H x] *)
  lambda_max : float;
  epsilon_achieved : float;
      (** smallest [eps] with [(1-eps) L_H <= L_G <= (1+eps) L_H];
          [infinity] if [H] fails to dominate the pencil at all *)
}

val exact : Graph.t -> Graph.t -> certificate
(** Dense, eigensolver-backed certificate; [O(n^3)].
    Both graphs must share the vertex set. *)

val probe : Prng.t -> Graph.t -> Graph.t -> samples:int -> certificate
(** Randomized quadratic-form probes with mean-centered Gaussian vectors:
    returns the extreme observed Rayleigh quotients.  A necessary condition
    only ([lambda] range is inner-approximated). *)

val power : Prng.t -> Graph.t -> Graph.t -> iters:int -> certificate
(** Extremal generalized eigenvalues of [(L_G, L_H)] by power iteration on
    [L_H^+ L_G] (for [lambda_max]) and [L_G^+ L_H] (for [lambda_min]),
    using direct factorizations of both Laplacians.  Much faster than
    {!exact} for [n] in the hundreds-to-thousands, converging to the true
    extremes as [iters] grows (both graphs must be connected). *)
