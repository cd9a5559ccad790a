(** Minimum-cost maximum flow through the LP solver (Section 5;
    Theorem 1.1).

    The LP (Daitch–Spielman / Lee–Sidford form): variables
    [(x, y, z, F)] with [x] the arc flows, [y, z] conservation slacks,
    [F] the flow value, constraint [B x + y - z = F e_t] over the vertices
    other than the source, costs [q~^T x + lambda (1^T y + 1^T z) - 2 n M~ F]
    where [q~] is the uniqueness perturbation of the arc costs.

    Constant calibration (DESIGN.md, substitution 5): the paper's
    [lambda = 440 |E|^4 M~^2 M^3] overflows double precision for any
    nontrivial instance; we fix [M~ = 8 E^2 M^3] as in the paper and
    [lambda = 16 n M~ M], which preserves the argument's inequalities
    ([lambda > 2 n M~ >> E M]) at laptop scale.  Exactness is certified
    against {!Mcmf.solve} rather than assumed. *)

open Lbcc_util
module Vec = Lbcc_linalg.Vec
module Problem = Lbcc_lp.Problem

type instance = {
  net : Network.t;
  problem : Problem.t;
  x0 : Vec.t;  (** the paper's explicit interior point *)
  qtilde : Vec.t;  (** perturbed arc costs *)
  n_lp : int;
  m_lp : int;
}

val build : prng:Prng.t -> Network.t -> instance

val column_of_vertex : instance -> int -> int
(** LP column of a non-source vertex.
    @raise Invalid_argument for the source. *)

val laplacian_normal_solver :
  ?accountant:Lbcc_net.Rounds.t ->
  ?backend:[ `Direct | `Gremban ] ->
  instance ->
  Problem.normal_solver
(** Lemma 5.1: assemble [A^T D A = B D1 B^T + D2 + D3 + e_t D4 e_t^T]
    locally (it is SDD with nonpositive off-diagonals) and solve it, charged
    the [T(n,m) = O~(log M)] rounds of the theorem.  [`Gremban] performs the
    paper's reduction to a Laplacian on the doubled virtual graph;
    [`Direct] (default) factors the SDD matrix itself, which is the same
    system but numerically robust to the extreme diagonal ranges of late
    IPM iterates (the doubling squares the conditioning gap).

    The returned operator is {e prepared}: its normal-matrix and diagonal
    workspaces are allocated once here and reused by every solve, and it
    must therefore be driven sequentially (the IPM does). *)

val round_flow : instance -> Vec.t -> float array
(** The paper's rounding: damp by [(1 - eps-hat)] and round each arc flow
    to the nearest integer. *)

type solve_result = {
  flow : float array;
  value : int;
  cost : int;
  feasible : bool;  (** rounded flow satisfies conservation + capacities *)
  matches_baseline : bool;  (** equals SSP's optimal value and cost *)
  iterations : int;  (** IPM progress steps *)
  rounds : int;  (** total rounds charged *)
  lp_objective : float;
}

val solve :
  ?accountant:Lbcc_net.Rounds.t ->
  prng:Prng.t ->
  Network.t ->
  solve_result
(** End-to-end Theorem 1.1: build the LP, run [LPSolve] with the
    Laplacian-backed normal solver to [eps = 1 / (12 M)], round, validate,
    and compare with the combinatorial baseline.  Accounting follows the prepare/query split:
    one [mcmf/prepare/*] phase (instance broadcast + operator setup) paid
    before the IPM starts, then [mcmf/ipm/query/normal-solve] charges per
    iteration. *)
