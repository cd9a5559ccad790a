(** A-posteriori spectral certificates for sparsifiers.

    The paper's guarantee (Definition 2.1) is
    [(1-eps) x^T L_H x <= x^T L_G x <= (1+eps) x^T L_H x] for all [x].
    For moderate [n] we verify this exactly: the extreme generalized
    eigenvalues of the pencil [(L_G, L_H)] are the tight constants.  For
    larger instances power iteration approximates them; {!bound} is the
    one rule the solver and the front door trust. *)

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

val power : Prng.t -> Graph.t -> Graph.t -> iters:int -> certificate
(** Extremal generalized eigenvalues of [(L_G, L_H)] by power iteration on
    [L_H^+ L_G] (for [lambda_max]) and [L_G^+ L_H] (for [lambda_min]),
    using direct factorizations of both Laplacians.  Much faster than
    {!exact} for [n] in the hundreds-to-thousands, converging to the true
    extremes as [iters] grows (both graphs must be connected). *)

val bound : Prng.t -> Graph.t -> Graph.t -> certificate
(** The certificate [Solver.preprocess] and [Lbcc.sparsify] use: {!exact}
    for [n <= 400]; above that {!power} with 60 iterations, its
    [lambda_min] divided and its [lambda_max] multiplied by a 1.15 margin,
    because power iteration approaches both extremes from inside.  Above
    [n = 400] the bound is therefore conservative: with [H = G] it reports
    [epsilon_achieved = 0.15].  Both graphs must be connected above
    [n = 400].  Only there does [bound] touch [prng]: it advances it once
    with [Prng.split] and iterates on the split-off stream. *)
