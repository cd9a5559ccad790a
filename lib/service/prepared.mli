(** Prepared Laplacian operators: run Theorem 1.3's preprocessing once,
    answer many queries.

    The paper splits the solver into a polylog-round {e preprocessing} phase
    (sparsifier chain, preconditioner factorization, condition certificate)
    and an [O(sqrt(kappa) log(1/eps))]-iteration {e query} phase per
    [(b, eps)].  A [Prepared.t] reifies that split as a service handle:
    {!create} pays the preprocessing exactly once and records it under the
    accountant phase [prepare/*]; every {!solve} charges only query-phase
    rounds under [query/*].  {!solve_many} batches right-hand sides across
    the {!Lbcc_util.Pool} domains with results and round accounting
    bit-identical to the same queries issued sequentially.

    {!create_cached} memoizes handles in an LRU {!Cache} keyed by the graph
    {!Fingerprint} and the preprocessing parameters, so repeated preparation
    of an identical graph is a hit and mutating the graph invalidates. *)

module Vec = Lbcc_linalg.Vec
module Graph = Lbcc_graph.Graph
module Rounds = Lbcc_net.Rounds

type t
(** A prepared operator for one graph: immutable preprocessing state plus a
    cumulative round accountant.  Queries may run concurrently {e inside}
    {!solve_many}; the handle itself must be driven from one domain. *)

type query_result = {
  solution : Vec.t;  (** zero-mean [y] with [||x - y||_L <= eps ||x||_L] *)
  residual : float;  (** measured [||b - L y|| / ||b||] *)
  iterations : int;  (** Chebyshev iterations (a function of [kappa, eps]) *)
  rounds : int;  (** query-phase rounds charged for this solve alone *)
  bits : int;  (** broadcast bits behind those rounds *)
}

val create : ?ctx:Ctx.t -> ?t:int -> Graph.t -> t
(** Run preprocessing (sparsify at [eps_H = 1/2], factor, certify) on the
    graph, charging it once under phase [prepare/*] on the handle's own
    accountant (seeded by [ctx.seed], traced via [ctx.tracer] when set;
    [ctx] defaults to {!Ctx.default}).  [t] overrides the
    sparsifier's bundle size as in {!Lbcc_sparsifier.Sparsify.run}.
    @raise Invalid_argument if the graph is not connected. *)

val solve : ?accountant:Rounds.t -> ?eps:float -> t -> b:Vec.t -> query_result
(** One Theorem 1.3 query ([eps] defaults to [1e-8]).  Charges only
    query-phase rounds — [query/laplacian-matvec] per Chebyshev iteration —
    on the handle's accountant, and mirrors the same total onto [accountant]
    when given (as one aggregate charge with the identical label path, so a
    caller's per-label breakdown matches the handle's).  [b] must have zero
    sum. *)

val solve_many :
  ?accountant:Rounds.t -> ?eps:float -> t -> Vec.t list -> query_result list
(** Batch solve: the right-hand sides are distributed over the default
    {!Lbcc_util.Pool} (each lane gets its own solver workspace), then the
    per-query charges are replayed sequentially in list order.  Solutions,
    per-query rounds, and the handle's accountant state afterwards are all
    bit-identical to calling {!solve} on each [b] in order, at every
    [LBCC_DOMAINS] value. *)

val effective_resistance :
  ?accountant:Rounds.t -> t -> s:int -> t:int -> float * query_result
(** [R_eff(s,t) = (e_s - e_t)^T L^+ (e_s - e_t)] via one query at
    [eps = 1e-10]; returns the resistance together with the
    query's accounting (the round report the legacy front door used to
    discard).
    @raise Invalid_argument when [s] or [t] is out of range. *)

(** {2 Cached creation} *)

val create_cached : ?cache:t Cache.t -> ?ctx:Ctx.t -> Graph.t -> t * bool
(** [(handle, hit)].  Looks up the ([graph] fingerprint, [ctx.seed]) key, at
    the default bundle parameters, in [cache] (default: the process-wide
    {!shared_cache}); on a miss, builds with {!create} and inserts.  On a hit the handle's observability
    sinks are re-pointed at the caller's [ctx] (tracer and metrics), since
    the cached handle may outlive the run that created it.  Mutating the
    graph changes its fingerprint, so stale handles are never returned. *)

val shared_cache : unit -> t Cache.t
(** The process-wide handle cache, holding up to 8 handles. *)

(** {2 Incremental updates} *)

val update_cached :
  ?cache:t Cache.t -> ?accountant:Rounds.t -> t -> Graph.Delta.t -> t
(** {!update}, then re-key the cache in place: the entry under the old
    (fingerprint, seed, t) key is removed and the patched handle is
    inserted under the new graph's key — exactly where {!create_cached}
    would look — so a hot handle survives the mutation instead of being
    invalidated and rebuilt cold. *)

(** {2 Introspection} *)

val graph : t -> Graph.t
val solver : t -> Lbcc_laplacian.Solver.t

val sketch : t -> Lbcc_sparsifier.Sparsify.sketch
(** The incremental sparsifier state {!update} maintains. *)

val generation : t -> int
(** Number of deltas patched into this handle (0 for a fresh {!create}). *)

val fingerprint_hex : t -> string

val preprocessing_rounds : t -> int
(** Rounds charged by {!create} — paid once per handle, however many
    queries follow. *)

val preprocessing_bits : t -> int

val prepare_breakdown : t -> (string * int * int) list
(** [(label path, rounds, bits)] per preprocessing charge, first-charge
    order — what a caller {!replay}s into its own accountant on a cache
    miss. *)

val replay : Rounds.t -> (string * int * int) list -> unit
(** Charge each [(label path, rounds, bits)] entry onto the accountant,
    in order, as recorded: under an open phase the paths nest beneath it,
    otherwise the accountant's breakdown gains the entries' labels
    verbatim.  {!solve}, {!solve_many} and {!update_cached} mirror onto a
    caller's accountant through it. *)

val queries : t -> int
(** Number of queries served so far. *)

val query_rounds : t -> int
(** Total query-phase rounds across all queries served. *)

val amortized_rounds_per_query : t -> float
(** [(preprocessing_rounds + query_rounds) / max 1 queries] — the quantity
    the BATCH benchmark shows decreasing in the batch size. *)
