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
    the achieved [eps_H] is measured and [kappa] set from the certificate
    {!Certify.bound}.  The certificate is proven in
    floating point at every [n] (a Cholesky test confirms each side), so
    the Chebyshev error guarantee holds whenever [preprocess] returns. *)

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
(** Per-lane scratch (fresh solve buffers for the [L_H] factor and a
    centering vector) for reentrant solves: the solver handle itself is
    immutable, but the default solve path reuses internal buffers, so
    concurrent solves on one handle must each pass their own
    [workspace]. *)

val workspace : t -> workspace
(** Fresh scratch for [t]; shares the (read-only) factorization. *)

val preprocess :
  ?accountant:Lbcc_net.Rounds.t ->
  ?phases:string list ->
  ?t:int ->
  ?k:int ->
  ?sparsifier:Graph.t ->
  prng:Prng.t ->
  graph:Graph.t ->
  unit ->
  t
(** Sparsify, factor [L_H] densely ([O(n^3)] setup, [O(n^2)] memory; the
    vertex-internal preconditioner solve is free in the model), and
    certify [kappa] with {!Certify.bound} on that same factor.  Both steps
    are vertex-internal: they run under zero-round [factor] and [certify]
    phases, which show up as trace spans and never as breakdown rows.
    When [sparsifier] is given it is used as [H] directly and the
    internal sparsification is skipped — the door the incremental-update
    path uses to rebuild a prepared operator from a patched
    {!Lbcc_sparsifier.Sparsify.sketch} without paying full
    re-sparsification rounds ([t] and [k] are then ignored; the caller
    has already charged the sketch's rounds).  Without [t] the bundle size
    is {!Lbcc_sparsifier.Sparsify.default_t} at [eps = 1/2].  [phases]
    relabels the accountant phase nesting for the charges (default
    [["solve"; "preprocess"]]; the service layer passes [["prepare"]]).
    @raise Invalid_argument if [graph] is not connected.
    @raise Certify.Not_certified if the pencil's bounds cannot be
    confirmed in floating point. *)

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
    count is a function of [(kappa, eps)] alone).
    @raise Invalid_argument if [eps] is not positive (NaN included). *)
