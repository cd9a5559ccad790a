(** The interior point method: [LPSolve], [PathFollowing],
    [CenteringInexact] (Algorithms 9–11; Theorem 1.4).

    Weighted path following: each progress step multiplies the path
    parameter [t] by [(1 ± alpha)] with [alpha = 0.5 / sqrt(c1)],
    [c1 = ||w||_1] — so Lewis weights ([||w||_1 <= 2n]) give
    [O(sqrt n log(t_end/t_start))] iterations and the unweighted log
    barrier ([||w||_1 = m]) gives [O(sqrt m ...)]: experiment E10 measures
    exactly this separation.  Each [CenteringInexact] performs one projected
    Newton step (one normal-equation solve through the supplied backend,
    charged [T(n,m)] rounds) and refreshes the weights.

    Weight refresh modes:
    - [`Recompute]: recompute regularized Lewis weights at the new point
      (warm-started fixed point) — the robust default; what the paper's
      update tracks.
    - [`Paper]: Algorithm 11's update — approximate weights, soft-max
      potential gradient, step obtained by {!Mixed_ball.maximize}, all with
      the printed constants.  Exercised by tests; impractically conservative
      for full solves (DESIGN.md, substitution 5). *)

open Lbcc_util
module Vec = Lbcc_linalg.Vec

type weighting = Lewis | Unweighted

type weight_update = [ `Recompute | `Paper ]

type leverage_mode = [ `Exact | `Jl of float ]

type config = {
  weighting : weighting;  (** experiment E10 compares the two *)
  weight_update : weight_update;
  leverage_mode : leverage_mode;
      (** no command sets these two yet; ROADMAP item 6(c) switches on
          [`Paper] updates and JL leverage *)
}
(** The path-following constants are fixed (DESIGN.md, substitution 5):
    Lewis weights are recomputed to fixed-point accuracy [0.05]; after
    each progress step, centering repeats until the centrality measure is
    at most [0.5], at most 30 times; a phase takes at most 200,000
    progress steps and ends with up to 6 extra centering steps. *)

val default_config : config

type trace = {
  iterations : int;  (** progress steps across both phases *)
  centering_calls : int;
  rounds : int;  (** rounds charged (when an accountant is given) *)
  max_eq_residual : float;  (** worst [||A^T x - b||] drift observed *)
  final_delta : float;  (** last centrality measure *)
}

type centering_state = {
  x : Vec.t;
  w : Vec.t;
  delta : float;
}

val centering_inexact :
  ?accountant:Lbcc_net.Rounds.t ->
  config:config ->
  prng:Prng.t ->
  problem:Problem.t ->
  solver:Problem.normal_solver ->
  t:float ->
  cost:Vec.t ->
  centering_state ->
  centering_state
(** One Newton step plus weight refresh (Algorithm 11). *)

val lp_solve :
  ?accountant:Lbcc_net.Rounds.t ->
  ?config:config ->
  prng:Prng.t ->
  problem:Problem.t ->
  solver:Problem.normal_solver ->
  x0:Vec.t ->
  eps:float ->
  unit ->
  Vec.t * trace
(** Algorithm 9: centers [x0], then follows the path until the duality-gap
    parameter reaches [t_2 = 2m/eps]; returns a strictly feasible [x] with
    [c^T x <= OPT + eps] (up to the calibrated-constants caveat of
    DESIGN.md). *)
