(** The interior point method: [LPSolve], [PathFollowing],
    [CenteringInexact] (Algorithms 9–11; Theorem 1.4).

    Weighted path following: each progress step multiplies the path
    parameter [t] by [(1 ± alpha)] with [alpha = step_scale / sqrt(c1)],
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
  weighting : weighting;
  weight_update : weight_update;
  leverage_mode : leverage_mode;
  step_scale : float;  (** multiplies [1/sqrt(c1)] in [alpha] *)
  lewis_eta : float;  (** fixed-point accuracy of weight recomputation *)
  final_centering : int;  (** extra centering steps at [t_end] *)
  max_iterations : int;  (** hard cap on progress steps per phase *)
  t1_c : float;  (** scale of the phase-1 target [t_1] *)
  delta_target : float;
      (** repeat centering after each progress step until the centrality
          measure drops below this *)
  max_centering_per_step : int;
  verbose : bool;
}

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

val initial_weights :
  ?accountant:Lbcc_net.Rounds.t ->
  config:config ->
  prng:Prng.t ->
  problem:Problem.t ->
  solver:Problem.normal_solver ->
  x0:Vec.t ->
  unit ->
  Vec.t * int
(** Regularized initial weights at [x0] (Algorithm 8 homotopy for Lewis
    weighting, all-ones for the unweighted baseline); returns the homotopy
    step count. *)

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
