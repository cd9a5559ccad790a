(** Linear programs in the paper's form (Section 4):

    [min c^T x  over  { x in R^m : A^T x = b,  l_i <= x_i <= u_i }]

    with [A ∈ R^{m×n}] of rank [n] (so flow LPs have [n ≈ |V|] and
    [m ≈ |E|]).  Every coordinate domain carries its self-concordant
    barrier. *)

module Vec = Lbcc_linalg.Vec
module Sparse = Lbcc_linalg.Sparse

type t = {
  a : Sparse.t;  (** [m x n] constraint matrix *)
  b : Vec.t;  (** demands, [R^n] *)
  c : Vec.t;  (** costs, [R^m] *)
  barriers : Barrier.t array;
}

val make :
  a:Sparse.t -> b:Vec.t -> c:Vec.t -> lo:float array -> hi:float array -> t
(** @raise Invalid_argument on dimension mismatches or empty domains. *)

val m : t -> int
val n : t -> int

val interior : t -> Vec.t -> bool
(** Strict interiority of every coordinate. *)

val equality_residual : t -> Vec.t -> float
(** [||A^T x - b||_2 / max(1, ||b||_2)]. *)

val objective : t -> Vec.t -> float

val phi' : t -> Vec.t -> Vec.t
val phi'' : t -> Vec.t -> Vec.t

val big_u : t -> x0:Vec.t -> float
(** The parameter [U] of Theorem 1.4:
    [max(||1/(u - x0)||_inf, ||1/(x0 - l)||_inf, ||u - l||_inf, ||c||_inf)]
    (infinite entries of [u - l] are skipped, as the paper's finite-[U]
    statements assume box-bounded coordinates). *)

type normal_solver = {
  solve : d:Vec.t -> rhs:Vec.t -> Vec.t;
      (** [(A^T diag(d) A)^{-1} rhs] to high precision, [d > 0] *)
  rounds : int;  (** the [T(n,m)] charged per call *)
}

val dense_normal_solver : t -> normal_solver
(** Reference backend: dense Gram assembly + LU per call. *)
