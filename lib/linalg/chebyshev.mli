(** Preconditioned Chebyshev iteration (Theorem 2.3 of the paper).

    Given symmetric PSD [A], [B] with [A <= B <= kappa * A], each iteration
    multiplies [A] by a vector, solves one linear system in [B], and does a
    constant number of vector operations; [O(sqrt(kappa) log(1/eps))]
    iterations produce [y] with [||x - y||_A <= eps ||x||_A] for some [x]
    with [A x = b].  This is the engine of the Laplacian solver:
    [A = L_G] and [B = (1 + 1/2) L_H] for a sparsifier [H] (Corollary 2.4).

    Both operators are in place: [matvec x dst] writes [A x] and
    [solve_b r dst] writes [B^{-1} r] into [dst].  The recurrence runs over
    preallocated workspaces, so each iteration allocates nothing. *)

type result = {
  solution : Vec.t;
  iterations : int;
  residual_norm : float; (* final ||b - A y||_2 relative to ||b||_2 *)
}

val iterations_bound : kappa:float -> eps:float -> int
(** The paper's iteration count [ceil(sqrt(kappa) * log(2/eps)) + 1]. *)

val solve :
  ?x0:Vec.t ->
  matvec:(Vec.t -> Vec.t -> unit) ->
  solve_b:(Vec.t -> Vec.t -> unit) ->
  kappa:float ->
  eps:float ->
  b:Vec.t ->
  unit ->
  result
(** Runs the fixed Chebyshev recurrence from [x0] (default zero) for
    [iterations_bound] steps, using [solve_b] as the preconditioner solve.
    No adaptive stopping: the round complexity of the distributed version is
    deterministic given [kappa] and [eps], exactly as in the paper. *)

val solve_adaptive :
  matvec:(Vec.t -> Vec.t -> unit) ->
  solve_b:(Vec.t -> Vec.t -> unit) ->
  kappa:float ->
  rtol:float ->
  b:Vec.t ->
  result
(** Same recurrence from zero but stops as soon as
    [||b - A y||_2 <= rtol * ||b||_2], or after 4 times [iterations_bound]
    at [eps = rtol]; used to *measure* iteration counts against the
    theoretical bound. *)
