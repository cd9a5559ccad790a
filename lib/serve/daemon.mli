(** The [lbcc_serve] daemon core, sockets excluded.

    Owns the full request lifecycle: validation against the {!Fleet},
    admission through the bounded {!Sched} queue (explicit [Overloaded]
    rejections, never unbounded buffering), coalesced execution through
    {!Lbcc_service.Prepared.solve_many}, and response emission.  The event
    loop ({!Server}) and the test suite drive the same three entry points —
    {!handle}, {!tick}, {!take_output} — so everything the daemon does over
    a socket is reproducible in-process.

    {b Determinism.}  Responses are bit-identical to direct
    [Lbcc]/[Prepared] calls on the same fleet and seed: batching changes
    {e when} a request is answered, never {e what} the answer is.  The only
    wall-clock reads go through {!Lbcc_obs.Clock} into latency histograms;
    scheduling decisions depend solely on the admit/dispatch trace. *)

type config = {
  sched : Sched.config;
  seed : int;  (** solver seed ({!Lbcc_service.Ctx}); pins responses *)
  cache_capacity : int;
      (** [Prepared] handle cache size; [0] disables reuse entirely, so
          every batch pays preprocessing afresh — the SERVE bench's serial
          baseline *)
  prepare_on_load : bool;
      (** prepare every fleet graph at startup (warm cache), charging the
          one-time costs before the first request arrives *)
}

val default_config : config
(** Default scheduler, seed 1, cache capacity 8, warm start. *)

type t

val create : ?metrics:Lbcc_obs.Metrics.t -> config -> Fleet.t -> t
(** A fresh daemon serving [fleet].  Supplies its own metrics registry when
    none is given; all SLO series live under the ["serve."] prefix. *)

val handle : t -> client:int -> id:int -> Proto.request -> unit
(** Process one decoded request from [client].  [Stats]/[Info]/[Shutdown]
    are answered immediately; solver work is validated (unknown names,
    wrong vector lengths and out-of-range vertices answer [Bad_request])
    and then admitted — or answered [Overloaded] when the queue is full or
    the daemon is draining.  Responses appear in {!take_output}. *)

val tick : ?force:bool -> t -> bool
(** Dispatch and execute at most one batch; [false] when no bin was ripe.
    [force] dispatches a non-empty bin even before it is ripe (idle poll,
    drain).  A solver exception answers every batch member with
    [Internal] rather than killing the daemon. *)

val drain : t -> unit
(** Force-tick until every admitted request has been answered — the
    graceful-shutdown guarantee. *)

val take_output : t -> (int * Bytes.t) list
(** Drain the emission queue: [(client, encoded response frame)] in
    emission order. *)

val request_shutdown : t -> unit
(** Begin draining: subsequent work requests are answered [Overloaded];
    already-admitted requests will still be answered. *)

val shutting_down : t -> bool
val pending : t -> int
val served : t -> int

val stats_json : t -> Lbcc_obs.Json.t
(** The [lbcc-serve-stats/1] SLO snapshot: admission and batch counters,
    round/bit totals, cache hit counters, latency and occupancy quantiles
    (via {!Lbcc_obs.Metrics.quantile}), and the full metrics registry.
    Strict JSON — safe for {!Lbcc_obs.Json.to_string}. *)

val metrics : t -> Lbcc_obs.Metrics.t
val accountant : t -> Lbcc_net.Rounds.t
