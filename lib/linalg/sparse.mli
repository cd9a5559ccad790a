(** Sparse matrices in compressed-sparse-row (CSR) form.

    Built once from coordinate triplets (duplicates are summed), then used for
    matvec-style operations.  This is the representation behind graph
    Laplacians and the LP constraint matrices. *)

type t

val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t
(** Duplicate [(i, j)] entries are summed; explicit zeros are dropped. *)

val to_dense : t -> Dense.t
(** The dense reference tests compare the sparse kernels against. *)

val rows : t -> int
val cols : t -> int
val nnz : t -> int

val matvec : t -> Vec.t -> Vec.t
(** Row-chunk parallel on the default pool for large matrices; per-row
    accumulation order is fixed, so results are identical at any pool
    size. *)

val matvec_t : t -> Vec.t -> Vec.t
(** [matvec_t a x = a^T x] without materializing the transpose. *)

val gram : t -> Vec.t -> Dense.t
(** [gram a d] is the (dense) normal matrix [a^T diag(d) a] — the paper's
    [A^T D A].  Requires [dim d = rows a]. *)
