(** Symmetric eigenproblems via the cyclic Jacobi rotation method.

    Used as the exact reference that certifies spectral-sparsifier quality
    (Theorem 1.2): for moderate [n] we compute all eigenvalues of
    [L_H^{+1/2} L_G L_H^{+1/2}] and read off the true relative condition
    number, rather than trusting the w.h.p. guarantee. *)

val relative_condition : Dense.t -> Dense.t -> float * float
(** [relative_condition a b] for symmetric PSD [a], [b] with the same
    nullspace returns [(lambda_min, lambda_max)] of the pencil [(a, b)]
    restricted to the complement of the common nullspace: the extreme
    generalized eigenvalues [lambda] with [a x = lambda b x].
    This is exactly the quantity bounded by the sparsifier guarantee
    [(1-eps) L_H <= L_G <= (1+eps) L_H].  Each Jacobi solve stops once
    the off-diagonal Frobenius norm is at most [1e-12] times
    [max 1 ||m||_F], or after 100 sweeps.
    @raise Invalid_argument if [b] is not symmetric. *)
