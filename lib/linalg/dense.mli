(** Dense matrices in row-major order.

    Sized for the "unlimited internal computation" steps of the simulated
    vertices: factorizations of sparsifier Laplacians ([n] up to a few
    thousand), reference computations for tests, and the exact spectral
    certificates of EXPERIMENTS.md. *)

type t

val create : int -> int -> t
(** [create r c] is the zero matrix with [r] rows and [c] columns. *)

val identity : int -> t
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
val matmul : t -> t -> t
(** Row-chunk parallel on the default pool for large operands; per-row
    arithmetic order is fixed, so results are identical at any pool size
    (as for {!matvec} and {!factorize}). *)

val matvec : t -> Vec.t -> Vec.t

val matvec_into : t -> Vec.t -> Vec.t -> unit
(** [matvec_into m x y] writes [m x] into [y] without allocating.  [y] must
    not alias [x]. *)

val matvec_t : t -> Vec.t -> Vec.t
(** [matvec_t a x] is [a^T x]. *)

val diag : t -> Vec.t
val of_diag : Vec.t -> t
val frobenius : t -> float
val symmetrize : t -> t
(** [(a + a^T) / 2]. *)

val is_symmetric : ?tol:float -> t -> bool

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
