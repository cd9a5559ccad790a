(** Self-healing wrappers for the w.h.p. entry points.

    The paper's guarantees hold "with high probability": a run of
    {!Lbcc.sparsify}, {!Lbcc.solve_laplacian} or {!Lbcc.min_cost_max_flow}
    can fail its own certificate (a sparsifier worse than the target
    epsilon, a residual above tolerance, an IPM answer that disagrees with
    the combinatorial baseline).  The plain API reports the certificate but
    returns the result regardless; this module closes the loop: it
    {b certifies every attempt, retries failed ones with a fresh split
    seed}, and always returns an explicit verdict instead of a silently
    degraded answer.

    Contexts: each wrapper takes the caller's {!Lbcc.Ctx.t} ([?ctx],
    default {!Lbcc.Ctx.default}).  Attempt 1 runs under that context
    unchanged, so a first attempt reproduces the plain API bit-for-bit;
    attempt [i > 1] runs under the same context with only its seed
    replaced, by a fresh seed drawn from a {!Lbcc_util.Prng.split} chain
    rooted at [ctx.seed] — the whole retry trajectory is a deterministic
    function of one integer.  The tracer, the metrics registry and the
    reliability tier therefore reach every attempt: each attempt opens its
    own spans and bumps the same counters.

    Budget: [max_retries] (default 3) retries after the first attempt;
    a negative budget raises [Invalid_argument].

    Backoff: where the algorithm exposes an effort knob, later attempts
    raise it — {!sparsify} doubles the bundle size [t] per retry (the
    paper's knob for the w.h.p. exponent). *)

module Graph = Lbcc_graph.Graph
module Network = Lbcc_flow.Network
module Vec = Lbcc_linalg.Vec

type verdict =
  | Ok  (** an attempt passed certification *)
  | Degraded
      (** budget exhausted; the best uncertified attempt is returned *)
  | Failed  (** every attempt raised; no result to return *)

type attempt = {
  attempt_seed : int;
  accepted : bool;
  score : float;
      (** certification metric, lower is better: achieved epsilon,
          measured residual, or 0/1 baseline agreement; [infinity] when
          the attempt raised *)
  rounds : int;  (** simulated rounds charged by this attempt *)
  detail : string;
}

type 'a outcome = {
  value : 'a option;  (** [None] iff [verdict = Failed] *)
  verdict : verdict;
  attempts : attempt list;  (** chronological; at least one *)
}

val verdict_string : verdict -> string

val pp : Format.formatter -> 'a outcome -> unit
(** Verdict, attempt count and per-attempt scores (not the value). *)

val sparsify :
  ?ctx:Lbcc.Ctx.t ->
  ?epsilon:float ->
  ?t:int ->
  ?max_retries:int ->
  ?accept:(Lbcc.sparsifier_result -> bool) ->
  Graph.t ->
  Lbcc.sparsifier_result outcome
(** Certifies [epsilon_achieved <= epsilon] (via the
    {!Lbcc_laplacian.Certify} certificate already computed by
    {!Lbcc.sparsify}); retries double the bundle size [t].  [?accept]
    overrides the certification predicate (used by tests to inject
    failures). *)

val solve_laplacian :
  ?ctx:Lbcc.Ctx.t ->
  ?eps:float ->
  ?max_retries:int ->
  ?accept:(Lbcc.laplacian_result -> bool) ->
  Graph.t ->
  b:Vec.t ->
  Lbcc.laplacian_result outcome
(** Certifies the measured 2-norm residual against [10 * eps] (the solve
    targets [eps] in the energy norm; the factor absorbs the norm gap). *)

val min_cost_max_flow :
  ?ctx:Lbcc.Ctx.t ->
  ?max_retries:int ->
  ?accept:(Lbcc.flow_result -> bool) ->
  Network.t ->
  Lbcc.flow_result outcome
(** Certifies agreement with the combinatorial successive-shortest-paths
    baseline ([result.exact]). *)
