(** Run context: the seed / tracer / metrics triple that every front-door
    entry point needs.

    Historically each of [Lbcc.sparsify], [Lbcc.solve_laplacian], … grew the
    same three optional labels ([?seed ?tracer ?metrics]) independently —
    and [effective_resistance] forgot two of them.  A [Ctx.t] packages the
    triple once so callers configure a run in one place and pass the same
    context to every entry point (and to {!Prepared.create} and the
    [Resilient] wrappers). *)

type t = {
  seed : int;  (** shared randomness for the simulated clique *)
  tracer : Lbcc_obs.Trace.t option;  (** span tree sink, when tracing *)
  metrics : Lbcc_obs.Metrics.t option;  (** counter/histogram registry *)
  reliability : Lbcc_net.Model.reliability;
      (** delivery tier the run is costed under: the pipeline's supersteps
          are surcharged by the tier's round overhead (DESIGN.md §9) *)
}

val default : t
(** Seed 1, no tracer, no metrics, raw delivery: what an entry point runs
    under when it is given no [?ctx]. *)

val make :
  ?seed:int ->
  ?tracer:Lbcc_obs.Trace.t ->
  ?metrics:Lbcc_obs.Metrics.t ->
  ?reliability:Lbcc_net.Model.reliability ->
  unit ->
  t
(** Explicit constructor; omitted fields take {!default}'s values. *)
