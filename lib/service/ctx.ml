type t = {
  seed : int;
  tracer : Lbcc_obs.Trace.t option;
  metrics : Lbcc_obs.Metrics.t option;
  reliability : Lbcc_net.Model.reliability;
}

(* seed 1 matches the historical default of every [Lbcc] entry point, so
   migrating a call site from the legacy labels to [?ctx] never changes its
   output; likewise reliability [None] (raw delivery) is the historical
   cost model. *)
let default =
  {
    seed = 1;
    tracer = None;
    metrics = None;
    reliability = Lbcc_net.Model.None;
  }

let make ?(seed = default.seed) ?tracer ?metrics
    ?(reliability = default.reliability) () =
  { seed; tracer; metrics; reliability }
