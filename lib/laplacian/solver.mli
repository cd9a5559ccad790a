(** The Broadcast Congested Clique Laplacian solver (Theorem 1.3).

    Preprocessing computes a spectral sparsifier [H] of [G] (every vertex
    then knows all of [H], so solves in [L_H] are vertex-internal) and a
    certified relative-condition bound [kappa] of the pencil
    [(L_G, (1+eps_H) L_H)].  Each [solve ~b ~eps] then runs preconditioned
    Chebyshev (Corollary 2.4): [O(sqrt(kappa) log(1/eps))] iterations, each
    one distributed [L_G]-matvec — a single vector exchange charged
    [O(log(nU/eps))] bits per vertex — plus an internal [L_H] solve.

    The paper fixes the sparsifier quality at [eps_H = 1/2] so
    [kappa = 3]; with calibrated bundle sizes (DESIGN.md, substitution 3)
    the achieved [eps_H] is measured and [kappa] set from the certificate,
    so the error guarantee always holds. *)

open Lbcc_util
module Vec = Lbcc_linalg.Vec
module Graph = Lbcc_graph.Graph

type t

type solve_result = {
  solution : Vec.t;
  iterations : int;
  rounds : int;  (** rounds charged for this solve *)
  bits : int;  (** bits charged for this solve *)
  residual : float;  (** measured [||b - L_G y||_2 / ||b||_2] *)
}

type workspace
(** Per-lane scratch (preconditioner scratch buffers + a centering vector)
    for reentrant solves: the solver handle itself is immutable, but the
    default solve path reuses internal buffers, so concurrent solves on one
    handle must each pass their own [workspace]. *)

val workspace : t -> workspace
(** Fresh scratch for [t]; shares the (read-only) factorizations. *)

val preprocess :
  ?accountant:Lbcc_net.Rounds.t ->
  ?phases:string list ->
  ?t:int ->
  ?k:int ->
  ?certify:[ `Exact | `Power of int | `Probe of int ] ->
  ?backend:[ `Lu | `Cg ] ->
  ?sparsifier:Graph.t ->
  prng:Prng.t ->
  graph:Graph.t ->
  unit ->
  t
(** Sparsify, factor [L_H], certify [kappa].  When [sparsifier] is given it
    is used as [H] directly and the internal sparsification is skipped —
    the door the incremental-update path uses to rebuild a prepared
    operator from a patched {!Lbcc_sparsifier.Sparsify.sketch} without
    paying full re-sparsification rounds ([t] and [k] are then ignored;
    the caller has already charged the sketch's rounds).  Without [t] the
    bundle size is {!Lbcc_sparsifier.Sparsify.default_t} at [eps = 1/2].  [certify] selects the exact
    eigen certificate (default for [n <= 400]), power iteration on the
    pencil (default above, tight and [O(n^3)]-free per step), or cheap
    randomized probing.  [phases] relabels the accountant phase nesting for
    the charges (default [["solve"; "preprocess"]]; the service layer passes
    [["prepare"]]).

    [backend] selects the vertex-internal preconditioner solve: [`Lu] (the
    default) factors [L_H] densely once — exact, [O(n^3)] setup, [O(n^2)]
    memory; [`Cg] answers each preconditioner application by
    Jacobi-preconditioned CG over the sparse [L_H] to a tolerance far below
    the outer accuracy — [O(m_H)] memory, the choice for [n] in the
    thousands (the SCALE bench runs [n = 8192] this way).  Round/bit
    accounting is identical under either backend: the preconditioner solve
    is vertex-internal and free in the model; only wall-clock and memory
    differ.  At that scale the default [`Power] certificate densely factors
    both Laplacians, but the cheap [`Probe] certificate is no safe
    substitute: it estimates the pencil's [lambda_max] from random vectors,
    so it can only underestimate [kappa], and Chebyshev then diverges
    without an exception.  On logged IPM normal systems of a [|V| = 8]
    flow, [`Probe 16] certified [kappa = 8.46] where the exact value is
    [1029] (ROADMAP item 1).
    @raise Invalid_argument if [graph] is not connected. *)

val sparsifier : t -> Graph.t
val kappa : t -> float
val preprocessing_rounds : t -> int

val solve :
  ?accountant:Lbcc_net.Rounds.t ->
  ?phases:string list ->
  ?workspace:workspace ->
  t ->
  b:Vec.t ->
  eps:float ->
  solve_result
(** [solve t ~b ~eps] returns [y] with [||x - y||_{L_G} <= eps ||x||_{L_G}]
    for the true solution [x] (guaranteed by the Chebyshev bound with the
    certified [kappa]).  [b] must have zero sum.  [phases] relabels the
    accountant phase nesting (default [["solve"]]; the service layer passes
    [["query"]]).  Pass a distinct [workspace] per lane to run concurrent
    solves on one handle; results are identical either way (the iteration
    count is a function of [(kappa, eps)] alone). *)
