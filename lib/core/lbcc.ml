open Lbcc_util
module Graph = Lbcc_graph.Graph
module Network = Lbcc_flow.Network
module Vec = Lbcc_linalg.Vec
module Rounds = Lbcc_net.Rounds
module Model = Lbcc_net.Model
module Metrics = Lbcc_obs.Metrics
module Ctx = Lbcc_service.Ctx
module Prepared = Lbcc_service.Prepared
module Cache = Lbcc_service.Cache
module Fingerprint = Lbcc_service.Fingerprint

let version = "1.0.0"

type rounds_report = {
  total : int;
  bits : int;
  breakdown : (string * int) list;
  bits_breakdown : (string * int) list;
  bandwidth : int;
}

let report_of acc =
  {
    total = Rounds.rounds acc;
    bits = Rounds.bits acc;
    breakdown = Rounds.breakdown acc;
    bits_breakdown = Rounds.bits_breakdown acc;
    bandwidth = Rounds.bandwidth acc;
  }

(* One accountant per entry point, tracer attached so phase spans nest under
   whatever span the caller currently has open. *)
let fresh_accountant ?tracer ~n () =
  let acc = Rounds.create ~bandwidth:(Model.bandwidth ~n) in
  Rounds.set_tracer acc tracer;
  acc

(* Reliability surcharge (DESIGN.md §9): the pipeline's bespoke superstep
   drivers run on the raw engine, so a delivery tier is costed, not
   simulated — every round the protocol spent is multiplied by the tier's
   per-superstep cycle overhead.  Crash_safe doubles each superstep (an
   ack/retransmit window, matching {!Lbcc_net.Reliable}'s 2-superstep
   virtual round); Byzantine_safe runs the 6-superstep echo-quorum cycle of
   {!Lbcc_net.Byzantine} at its default [retries = 1], i.e. 5 extra rounds
   per protocol round.  The overhead lands under the tier's own label so
   reports stay comparable across tiers. *)
let reliability_surcharge acc reliability =
  let extra, label =
    match reliability with
    | Model.None -> (0, "")
    | Model.Crash_safe -> (1, "retransmit")
    | Model.Byzantine_safe -> (5, "byz-echo")
  in
  if extra > 0 then
    (* Deliberately phase-free: the surcharge lands under the tier label so
     reports stay comparable across tiers (comment above). *)
    (* lbcc-lint: allow typ-phase-flow *)
    Rounds.charge acc ~label ~rounds:(extra * Rounds.rounds acc)

let observe_run ?metrics ~op acc =
  Metrics.inc metrics (op ^ ".calls");
  Metrics.inc metrics ~by:(Rounds.rounds acc) "rounds.total";
  Metrics.inc metrics ~by:(Rounds.bits acc) "bits.total";
  Metrics.observe metrics (op ^ ".rounds") (float_of_int (Rounds.rounds acc))

type sparsifier_result = {
  sparsifier : Graph.t;
  epsilon_achieved : float;
  out_degree_max : int;
  rounds : rounds_report;
}

let sparsify ?ctx:(c = Ctx.default) ?(epsilon = 0.5) ?t g =
  let seed = c.Ctx.seed and tracer = c.Ctx.tracer and metrics = c.Ctx.metrics in
  let n = Graph.n g in
  let acc = fresh_accountant ?tracer ~n () in
  let prng = Prng.create seed in
  let r = Lbcc_sparsifier.Sparsify.run ~accountant:acc ?t ~prng ~graph:g ~epsilon () in
  let h = r.Lbcc_sparsifier.Sparsify.sparsifier in
  let cert = Lbcc_laplacian.(Certify.bound (Exact.factor g) (Exact.factor h)) in
  let out_deg =
    Lbcc_spanner.Spanner.out_degrees ~n r.Lbcc_sparsifier.Sparsify.orientation
  in
  let out_degree_max = Array.fold_left Stdlib.max 0 out_deg in
  reliability_surcharge acc c.Ctx.reliability;
  observe_run ?metrics ~op:"sparsify" acc;
  Metrics.set_gauge metrics "sparsify.epsilon_achieved"
    cert.Lbcc_laplacian.Certify.epsilon_achieved;
  Metrics.set_gauge metrics "sparsify.out_degree_max" (float_of_int out_degree_max);
  {
    sparsifier = h;
    epsilon_achieved = cert.Lbcc_laplacian.Certify.epsilon_achieved;
    out_degree_max;
    rounds = report_of acc;
  }

type laplacian_result = {
  solution : Vec.t;
  residual : float;
  iterations : int;
  preprocessing_rounds : int;
  solve_rounds : int;
  rounds : rounds_report;
}

(* Mirror a handle's one-time preprocessing cost into a per-call accountant
   (label-for-label, so the report's breakdown matches a from-scratch run);
   skipped on cache hits, where preparation was paid by an earlier call. *)
let prepare_cached acc c g =
  let p, hit = Prepared.create_cached ~ctx:c g in
  if not hit then Prepared.replay acc (Prepared.prepare_breakdown p);
  p

let solve_laplacian ?ctx:(c = Ctx.default) ?(eps = 1e-8) g ~b =
  let acc = fresh_accountant ?tracer:c.Ctx.tracer ~n:(Graph.n g) () in
  let p = prepare_cached acc c g in
  let q = Prepared.solve ~accountant:acc ~eps p ~b in
  let metrics = c.Ctx.metrics in
  reliability_surcharge acc c.Ctx.reliability;
  observe_run ?metrics ~op:"solve" acc;
  Metrics.set_gauge metrics "solve.residual" q.Prepared.residual;
  Metrics.set_gauge metrics "solve.iterations"
    (float_of_int q.Prepared.iterations);
  {
    solution = q.Prepared.solution;
    residual = q.Prepared.residual;
    iterations = q.Prepared.iterations;
    preprocessing_rounds = Prepared.preprocessing_rounds p;
    solve_rounds = q.Prepared.rounds;
    rounds = report_of acc;
  }

type flow_result = {
  flow : float array;
  value : int;
  cost : int;
  exact : bool;
  ipm_iterations : int;
  rounds : rounds_report;
}

let min_cost_max_flow ?ctx:(c = Ctx.default) net =
  let seed = c.Ctx.seed and tracer = c.Ctx.tracer and metrics = c.Ctx.metrics in
  let acc = fresh_accountant ?tracer ~n:net.Network.n () in
  let r = Lbcc_flow.Mcmf_lp.solve ~accountant:acc ~prng:(Prng.create seed) net in
  reliability_surcharge acc c.Ctx.reliability;
  observe_run ?metrics ~op:"mcmf" acc;
  Metrics.set_gauge metrics "mcmf.ipm_iterations"
    (float_of_int r.Lbcc_flow.Mcmf_lp.iterations);
  Metrics.set_gauge metrics "mcmf.value" (float_of_int r.Lbcc_flow.Mcmf_lp.value);
  Metrics.set_gauge metrics "mcmf.cost" (float_of_int r.Lbcc_flow.Mcmf_lp.cost);
  {
    flow = r.Lbcc_flow.Mcmf_lp.flow;
    value = r.Lbcc_flow.Mcmf_lp.value;
    cost = r.Lbcc_flow.Mcmf_lp.cost;
    exact = r.Lbcc_flow.Mcmf_lp.matches_baseline;
    ipm_iterations = r.Lbcc_flow.Mcmf_lp.iterations;
    rounds = report_of acc;
  }

type resistance_result = {
  resistance : float;
  query_rounds : int;
  preprocessing_rounds : int;
  rounds : rounds_report;
}

(* Front door: the one-shot resistance query of the public API, the
   counterpart of the daemon's resistance opcode; test_core.ml,
   test_flow.ml and test_service.ml check it. *)
(* lbcc-lint: allow typ-dead-export *)
let effective_resistance ?ctx:(c = Ctx.default) g ~s ~t =
  let acc = fresh_accountant ?tracer:c.Ctx.tracer ~n:(Graph.n g) () in
  let p = prepare_cached acc c g in
  let resistance, q = Prepared.effective_resistance ~accountant:acc p ~s ~t in
  let metrics = c.Ctx.metrics in
  reliability_surcharge acc c.Ctx.reliability;
  observe_run ?metrics ~op:"resistance" acc;
  Metrics.set_gauge metrics "resistance.value" resistance;
  {
    resistance;
    query_rounds = q.Prepared.rounds;
    preprocessing_rounds = Prepared.preprocessing_rounds p;
    rounds = report_of acc;
  }
