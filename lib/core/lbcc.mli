(** Laplacian paradigm in the Broadcast Congested Clique — public API.

    One-call entry points for the paper's three main results, each returning
    its result together with the simulated round count:

    - {!sparsify}: Theorem 1.2 — spectral sparsification in Broadcast
      CONGEST;
    - {!solve_laplacian}: Theorem 1.3 — the BCC Laplacian solver;
    - {!min_cost_max_flow}: Theorem 1.1 — exact minimum-cost maximum flow
      in [O~(sqrt n)] BCC rounds.

    The underlying building blocks are exposed through the per-subsystem
    libraries ([Lbcc_spanner], [Lbcc_sparsifier], [Lbcc_laplacian],
    [Lbcc_service], [Lbcc_lp], [Lbcc_flow], [Lbcc_net], [Lbcc_graph],
    [Lbcc_linalg], [Lbcc_util]); this module is the curated front door.

    {b Run contexts.}  Every entry point accepts a {!Ctx.t} bundling the
    seed / tracer / metrics / reliability bundle — the {e only}
    configuration door (the historical per-call [?seed]/[?tracer]/
    [?metrics] labels were deprecated when the Prepared layer landed and
    are now gone).  Build one context with {!Ctx.make} and pass it
    everywhere.

    {b Prepared handles.}  {!solve_laplacian} and {!effective_resistance}
    now route through the {!Prepared} service layer: Theorem 1.3's
    preprocessing runs at most once per (graph fingerprint, seed) — repeat
    calls hit the process-wide handle cache and pay only query-phase
    rounds.  Hold a {!Prepared.t} directly for prepare-once / query-many
    workloads and multi-RHS batching. *)

module Graph = Lbcc_graph.Graph
module Network = Lbcc_flow.Network
module Vec = Lbcc_linalg.Vec

module Ctx = Lbcc_service.Ctx
(** Run context: seed + observability sinks, passed as [?ctx] to every
    entry point. *)

module Prepared = Lbcc_service.Prepared
(** Prepared-operator handles: preprocess once, query many times, batch
    right-hand sides across domains. *)

module Cache = Lbcc_service.Cache
(** The LRU cache type behind {!Prepared.create_cached}. *)

module Fingerprint = Lbcc_service.Fingerprint
(** Structural graph fingerprints (the handle-cache key). *)

type rounds_report = {
  total : int;  (** rounds charged in the simulated model *)
  bits : int;
      (** broadcast bits recorded (per-superstep maxima, the quantity the
          lockstep model divides by B) *)
  breakdown : (string * int) list;
      (** rounds per hierarchical label path ("sparsify/spanner-..."),
          first-charge order *)
  bits_breakdown : (string * int) list;  (** bits, same labels and order *)
  bandwidth : int;  (** B, bits per message per round *)
}

type sparsifier_result = {
  sparsifier : Graph.t;
  epsilon_achieved : float;
      (** {!Lbcc_laplacian.Certify.bound}: a power-iteration estimate
          proven by a Cholesky test, one rule at every [n]; with [H = G]
          it reports about [1e-6] *)
  out_degree_max : int;
  rounds : rounds_report;
}

val sparsify :
  ?ctx:Ctx.t -> ?epsilon:float -> ?t:int -> Graph.t -> sparsifier_result
(** Spectral sparsification (Theorem 1.2) of a connected weighted graph.
    [epsilon] defaults to [0.5]; [t] overrides the bundle size.  With a
    tracer the run's phases open spans under the caller's current span;
    with metrics the run bumps the registry (see the "Metrics" section
    of the README for the label set). *)

type laplacian_result = {
  solution : Vec.t;
  residual : float;  (** measured [||b - L x||/||b||] *)
  iterations : int;
  preprocessing_rounds : int;
  solve_rounds : int;
  rounds : rounds_report;  (** full accounting (preprocess + solve) *)
}

val solve_laplacian :
  ?ctx:Ctx.t -> ?eps:float -> Graph.t -> b:Vec.t -> laplacian_result
(** High-precision Laplacian solve (Theorem 1.3): [eps] defaults to
    [1e-8]; [b] must have zero sum; the graph must be connected.

    Served through the {!Prepared} cache: the first call on a graph pays
    preprocessing (reported under the [prepare/*] labels), repeat calls
    with the same (graph, seed) reuse the cached handle and report only
    query-phase rounds ([query/*]).  [preprocessing_rounds] always records
    the handle's one-time cost; [rounds.total] reflects what {e this} call
    charged. *)

type flow_result = {
  flow : float array;
  value : int;
  cost : int;
  exact : bool;  (** certified against the combinatorial baseline *)
  ipm_iterations : int;
  rounds : rounds_report;
}

val min_cost_max_flow : ?ctx:Ctx.t -> Network.t -> flow_result
(** Exact minimum-cost maximum s-t flow (Theorem 1.1) through the interior
    point pipeline, certified against successive shortest paths.  The LP
    instance and normal-operator workspaces are prepared once (one
    [mcmf/prepare/*] phase in the report); every IPM iteration then charges
    only [query/*] solve rounds. *)

type resistance_result = {
  resistance : float;  (** [R_eff(s,t) = (e_s - e_t)^T L^+ (e_s - e_t)] *)
  query_rounds : int;  (** rounds for this query alone *)
  preprocessing_rounds : int;  (** the handle's one-time preparation cost *)
  rounds : rounds_report;  (** full accounting for this call *)
}

val effective_resistance :
  ?ctx:Ctx.t -> Graph.t -> s:int -> t:int -> resistance_result
(** Effective resistance between two vertices via the Laplacian solver —
    the classical first application of the Laplacian paradigm.  Routed
    through the {!Prepared} cache like {!solve_laplacian}, and — unlike the
    historical float-returning version — reports its round accounting
    instead of discarding it. *)

val version : string
