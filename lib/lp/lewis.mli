(** Regularized ℓ_p Lewis weights (Definition 4.3; Algorithms 7–8).

    [w_p(M)] is the unique fixed point of [w = sigma(W^{1/2 - 1/p} M)].
    [compute_apx_weights] is the paper's damped iteration from a warm start
    (Lemma 4.6); [compute_initial_weights] homotopes [p] from 2 (where Lewis
    weights are plain leverage scores) down to the target in
    [O(sqrt n)]-ish steps.  [fixed_point] is the classical undamped
    iteration (geometric for [p < 4]) used as the reference in tests.

    Practical constants: the paper's damping [L], cap [r] and step [h] carry
    factors like [2^-20] that make progress invisible at laptop scale, so
    they are fixed to calibrated values (DESIGN.md, substitution 5): the
    homotopy step is [h = 0.25 min(2,p)/sqrt(n log(m e^2/n))] where the
    paper has [p^2(4-p)/2^20] in place of [0.25], and a fixed-point solve
    takes at most 200 iterations. *)

module Vec = Lbcc_linalg.Vec

val residual : leverage:(Vec.t -> Vec.t) -> p:float -> Vec.t -> float
(** [|| w^{-1} (sigma(W^{1/2-1/p} M) - w) ||_inf] — distance from the Lewis
    fixed point; [leverage d] must return [sigma(diag(d) M)]. *)

val fixed_point :
  leverage:(Vec.t -> Vec.t) -> p:float -> w0:Vec.t -> eta:float -> Vec.t * int
(** Undamped iteration [w <- sigma(W^{1/2-1/p} M)] until the residual drops
    below [eta] (or the iteration cap); returns the weights and the
    iteration count. *)

val compute_apx_weights :
  leverage:(Vec.t -> Vec.t) -> p:float -> w0:Vec.t -> eta:float -> Vec.t * int
(** Algorithm 7: damped and clamped to the trust region
    [\[(1-r) w0, (1+r) w0\]] around the warm start. *)

val compute_initial_weights :
  leverage_for:(p:float -> Vec.t -> Vec.t) ->
  m:int ->
  n:int ->
  p_target:float ->
  eta:float ->
  Vec.t * int
(** Algorithm 8: start at [p = 2] with [w = sigma(M)]-ish, walk [p] to
    [p_target] in steps of [h = 0.25 min(2,p)/sqrt(n log(m e^2/n))],
    re-solving the fixed point at each stop; returns the weights and the
    total number of homotopy steps. *)

val regularized : Vec.t -> n:int -> m:int -> Vec.t
(** [g(x) = w + n/(2m)] — the regularization of Definition 4.3. *)
