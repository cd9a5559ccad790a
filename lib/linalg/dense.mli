(** Dense matrices in row-major order.

    Sized for the "unlimited internal computation" steps of the simulated
    vertices: factorizations of sparsifier Laplacians ([n] up to a few
    thousand), reference computations for tests, and the Cholesky test
    behind the spectral certificates of EXPERIMENTS.md. *)

type t

val create : int -> int -> t
(** [create r c] is the zero matrix with [r] rows and [c] columns. *)

val init : int -> int -> (int -> int -> float) -> t

val rows : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val add_entry : t -> int -> int -> float -> unit

val fill : t -> float -> unit
(** [fill m v] sets every entry of [m] to [v] in place — lets hot loops
    (the IPM normal-matrix assembly) reuse one buffer instead of
    reallocating per call. *)

val add : t -> t -> t
val matvec : t -> Vec.t -> Vec.t
(** Row-chunk parallel on the default pool for large operands; per-row
    arithmetic order is fixed, so results are identical at any pool size
    (as for {!factorize}). *)

val matvec_into : t -> Vec.t -> Vec.t -> unit
(** [matvec_into m x y] writes [m x] into [y] without allocating.  [y] must
    not alias [x]. *)

val matvec_t : t -> Vec.t -> Vec.t
(** [matvec_t a x] is [a^T x]. *)

val of_diag : Vec.t -> t
val is_symmetric : ?tol:float -> t -> bool

val proves_positive_definite : slack:float -> t -> bool
(** [proves_positive_definite ~slack m] is [true] only if every symmetric
    matrix within spectral-norm distance [slack] of the symmetric [m] is
    positive definite.  It attempts a floating-point
    Cholesky factorization of [m - c I], where [c] is [slack] plus twice
    Rump's rounding bound [gamma_(k+2) / (1 - gamma_(k+2)) * tr|m|] for a
    [k x k] matrix (Rump, "Verification of positive definiteness", BIT 46,
    2006; he uses [gamma_(k+1)] once), and reports whether every pivot
    was positive.  [false] proves
    nothing.  Reads only the lower triangle and overwrites it, and the
    diagonal, with the attempt; [O(k^3 / 3)]. *)

val solve : t -> Vec.t -> Vec.t
(** Gaussian elimination with partial pivoting.
    @raise Failure if the matrix is (numerically) singular. *)

type factorization
(** A reusable LU factorization with partial pivoting. *)

val factorize : t -> factorization
(** @raise Failure if the matrix is (numerically) singular. *)

val solve_factored : factorization -> Vec.t -> Vec.t

val solve_factored_into : factorization -> Vec.t -> Vec.t -> unit
(** [solve_factored_into f b x] writes the solution into [x] without
    allocating.  [x] must not alias [b] (the permutation gather reads [b]
    while writing [x]). *)
