(** Approximate leverage scores (Algorithm 6, [ComputeLeverageScores];
    Lemma 4.5).

    [sigma(M) = diag(M (M^T M)^{-1} M^T)].  Using
    [sigma(M)_i = ||M (M^T M)^{-1} M^T e_i||_2^2] and a seed-driven JL
    projection [Q], each probe [j] computes
    [p^(j) = M (M^T M)^{-1} M^T Q^(j)] with one [M^T]-matvec, one normal
    system solve, and one [M]-matvec; [sigma ≈ sum_j (p^(j))^2]. *)

module Vec = Lbcc_linalg.Vec
module Sparse = Lbcc_linalg.Sparse

type operator = {
  rows : int;  (** m *)
  cols : int;  (** n *)
  apply : Vec.t -> Vec.t;  (** [M x] *)
  apply_t : Vec.t -> Vec.t;  (** [M^T y] *)
  solve_normal : Vec.t -> Vec.t;  (** [(M^T M)^{-1} z] to high precision *)
  solve_rounds : int;
      (** the [T(n,m)] of Theorem 1.4: rounds charged per normal solve *)
}

val of_row_scaled : ?solve_rounds:int -> Sparse.t -> Vec.t -> operator
(** [of_row_scaled a d] is the operator for [M = diag(d) * a], with the
    normal solves done by dense factorization of the Gram matrix (the
    reference backend; flow instances override with the Laplacian path). *)

val exact : operator -> Vec.t
(** Exact leverage scores via [n] normal solves — [O(n)] probes; reference
    for tests and small instances. *)

val approximate :
  ?accountant:Lbcc_net.Rounds.t ->
  prng:Lbcc_util.Prng.t ->
  eta:float ->
  operator ->
  Vec.t
(** The distributed algorithm: the leader draws a seed ([Theta(log^2 m)]
    bits, charged as one broadcast), every vertex expands [Q], and
    [k = O(log(m)/eta^2)] probes are evaluated, each charged two vector
    exchanges plus [solve_rounds]. *)
