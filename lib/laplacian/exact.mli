(** Exact (direct) Laplacian solving by pinning and dense pivoted LU.

    [L] of a connected graph has nullspace [span(1)]; pinning vertex 0
    (deleting its row and column) leaves an SPD system.  Used for the
    vertex-internal solves of the distributed algorithms (simulated vertices
    have unlimited local computation and know the whole sparsifier), for
    {!Certify.bound}'s power iteration and as the reference in tests.

    All solves require a right-hand side with (numerically) zero sum —
    otherwise [L x = b] has no solution — and return the solution with zero
    mean. *)

module Vec = Lbcc_linalg.Vec
module Graph = Lbcc_graph.Graph

type t
(** A factored Laplacian. *)

val factor : Graph.t -> t

val graph : t -> Graph.t
(** The graph whose Laplacian [t] factors. *)

val solve : t -> Vec.t -> Vec.t
(** [solve t b] returns the per-component-zero-mean [x] with [L x = b].
    @raise Invalid_argument if [b] has non-negligible sum on some
    component. *)

val solve_into : t -> Vec.t -> Vec.t -> unit
(** [solve_into t b x] writes the solution into [x] using scratch buffers
    held in [t]: allocation-free, but not reentrant — do not share one
    factorization across concurrent solves.  [x] must not alias [b]. *)

val clone_scratch : t -> t
(** A handle sharing the (read-only) factorizations of [t] but carrying
    fresh scratch buffers, so clones may solve concurrently — the batched
    multi-RHS path hands one clone to each worker lane. *)

val solve_graph : Graph.t -> Vec.t -> Vec.t
(** One-shot [factor] + [solve]. *)

val laplacian_norm : Graph.t -> Vec.t -> float
(** [||x||_{L} = sqrt (x^T L x)]. *)

val residual : Graph.t -> x:Vec.t -> b:Vec.t -> float
(** [||b - L x||_2 / ||b||_2]. *)
