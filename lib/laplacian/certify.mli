(** A-posteriori spectral certificates for sparsifiers.

    The paper's guarantee (Definition 2.1) is
    [(1-eps) x^T L_H x <= x^T L_G x <= (1+eps) x^T L_H x] for all [x].
    {!bound} proves it with one rule at every [n]: estimate the extreme
    generalized eigenvalues of the pencil [(L_G, L_H)], then confirm each
    side with a Cholesky attempt whose rounding is bounded.  It is the one
    certificate the solver and the front door trust. *)

type certificate = {
  lambda_min : float;
      (** a positive lower bound on the min over [x ⟂ 1] of
          [x^T L_G x / x^T L_H x] *)
  lambda_max : float;  (** an upper bound on the max of the same quotient *)
  epsilon_achieved : float;
      (** smallest [eps] with [(1-eps) L_H <= L_G <= (1+eps) L_H] that the
          bounds prove *)
}

type side = Lambda_min | Lambda_max

exception Not_certified of { side : side; estimate : float; last_tried : float }
(** The Cholesky test could not confirm [side] (with [lambda_min > 0])
    even [10^6] times beyond its power-iteration [estimate]: [last_tried]
    is the last bound tried.  Float64 cannot certify pencils whose weights
    span about [1e16]. *)

val bound : Exact.t -> Exact.t -> certificate
(** [bound fg fh] proves [lambda_min <= x^T L_G x / x^T L_H x <= lambda_max]
    for [x] orthogonal to 1, with [fg = Exact.factor g], [fh = Exact.factor h].
    - {b Estimate.} 60 power iterations on [L_H^+ L_G] and [L_G^+ L_H],
      solving through the two factors, from a fixed internal seed, give
      Rayleigh quotients [lmax_hat] and [lmin_hat].  Their quality
      affects tightness and cost, not soundness.
    - {b Confirm.} [lambda_max = c] once
      {!Lbcc_linalg.Dense.proves_positive_definite} accepts the
      vertex-0-grounded [(n-1) x (n-1)] matrix of [c L_H - L_G], with the
      error of forming it as slack; [lambda_min = c] once it accepts
      [L_G - c L_H].  [c] starts at [lmax_hat (1 + 1e-6)] (resp.
      [lmin_hat / (1 + 1e-6)]) and the relative gap doubles on failure;
      after a success four bisection steps tighten it.
    Costs: dense factorizations, none (the caller's factors); 120 [O(n^2)]
    LU solves; a few [O(n^3 / 3)] Cholesky attempts per side.  Both graphs
    must share the vertex set and be connected.
    @raise Not_certified when a side fails 41 attempts (gap [1e-6 * 2^40]).
    @raise Invalid_argument on a vertex-count mismatch or a disconnected
    graph. *)
