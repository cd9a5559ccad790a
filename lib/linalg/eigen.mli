(** Symmetric eigenproblems via the cyclic Jacobi rotation method.

    Used as the exact reference that certifies spectral-sparsifier quality
    (Theorem 1.2): for moderate [n] we compute all eigenvalues of
    [L_H^{+1/2} L_G L_H^{+1/2}] and read off the true relative condition
    number, rather than trusting the w.h.p. guarantee. *)

val jacobi : ?max_sweeps:int -> ?tol:float -> Dense.t -> Vec.t * Dense.t
(** [jacobi a] returns [(eigenvalues, eigenvectors)] of symmetric [a]:
    column [j] of the returned matrix is the unit eigenvector for
    [eigenvalues.(j)].  Eigenvalues are sorted ascending.
    @raise Invalid_argument if [a] is not symmetric. *)

val eigenvalues : ?max_sweeps:int -> ?tol:float -> Dense.t -> Vec.t
(** Eigenvalues only, sorted ascending. *)

val relative_condition : Dense.t -> Dense.t -> float * float
(** [relative_condition a b] for symmetric PSD [a], [b] with the same
    nullspace returns [(lambda_min, lambda_max)] of the pencil [(a, b)]
    restricted to the complement of the common nullspace: the extreme
    generalized eigenvalues [lambda] with [a x = lambda b x].
    This is exactly the quantity bounded by the sparsifier guarantee
    [(1-eps) L_H <= L_G <= (1+eps) L_H]. *)
