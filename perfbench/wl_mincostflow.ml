(* mincostflow: Theorem 1.1 end to end.  Each operation is one
   Lbcc.min_cost_max_flow on a Network.random instance (density 0.5,
   capacities and costs <= 8), checked by an optimality certificate.

   The instance list is fixed: |V| = 8 with Network seeds 100-107 and
   |V| = 10 with seeds 118-119.  Instances drawn from --seed cannot be
   used, because today's rounding returns an infeasible flow on some of
   them (|V| = 8, seed 1054 is one) and a failure that depends on the seed
   would make the failed share differ between runs.  Seed 119 at |V| = 10
   is such an instance; it stays in, counted as failed on every run.
   --seed is therefore unused here.

   The traced run rebuilds the same computation from the public pieces
   (Mcmf_lp.build, laplacian_normal_solver, Ipm.lp_solve, round_flow,
   Mcmf.solve) so it can wrap the normal solver and time the oracle; its
   round and bit totals are compared with the front door's. *)

open Common
module Network = Lbcc_flow.Network
module Mcmf_lp = Lbcc_flow.Mcmf_lp
module Mcmf = Lbcc_flow.Mcmf
module Ipm = Lbcc_lp.Ipm
module Problem = Lbcc_lp.Problem
module Rounds = Lbcc_net.Rounds
module Model = Lbcc_net.Model
module Lbcc = Lbcc_core.Lbcc
module Ctx = Lbcc_service.Ctx
module Prng = Lbcc_util.Prng

let instances =
  List.init 8 (fun i -> (8, 100 + i)) @ [ (10, 118); (10, 119) ]

(* Rounding faults known today (ROADMAP item 2). *)
let known_faults = [ (10, 119) ]
let ctx_seed = 3

let to_oracle (net : Network.t) =
  let a = net.Network.arcs in
  {
    Oracle.nv = net.Network.n;
    src = Array.map (fun (x : Network.arc) -> x.Network.src) a;
    dst = Array.map (fun (x : Network.arc) -> x.Network.dst) a;
    cap = Array.map (fun (x : Network.arc) -> x.Network.capacity) a;
    cost = Array.map (fun (x : Network.arc) -> x.Network.cost) a;
    s = net.Network.source;
    t = net.Network.sink;
  }

let certify onet ~flow ~value ~cost ~rounds ~bits =
  match Oracle.flow_certificate onet flow with
  | Error why -> fail ~rounds ~bits why
  | Ok (v, c) ->
      if v = value && c = cost then pass ~rounds ~bits
      else
        fail ~rounds ~bits
          (Printf.sprintf "reported value/cost %d/%d, flow carries %d/%d" value cost v c)

let instance_charge (r : Lbcc.flow_result) =
  let label = "mcmf/prepare/flow-instance" in
  ( Option.value (List.assoc_opt label r.Lbcc.rounds.Lbcc.breakdown) ~default:0,
    Option.value (List.assoc_opt label r.Lbcc.rounds.Lbcc.bits_breakdown) ~default:0 )

(* The traced decomposition of Mcmf_lp.solve.  The instance-broadcast
   charge is replayed from the front door's own breakdown of the same
   instance, so no accounting formula is duplicated here. *)
let traced_solve tr (net : Network.t) (front : Lbcc.flow_result) =
  let acc = Rounds.create ~bandwidth:(Model.bandwidth ~n:net.Network.n) in
  Rounds.set_tracer acc (Some tr.tr);
  let tracer = Some tr in
  let normal_solves = ref 0 and normal_s = ref 0.0 in
  let flow, iterations =
    Rounds.with_phase acc "mcmf" @@ fun () ->
    let prng = Prng.create ctx_seed in
    let inst, solver =
      span tracer "flow.prepare" @@ fun () ->
      Rounds.with_phase acc "prepare" @@ fun () ->
      let inst = Mcmf_lp.build ~prng net in
      let rounds, bits = instance_charge front in
      Rounds.charge acc ~bits ~label:"flow-instance" ~rounds;
      (inst, Mcmf_lp.laplacian_normal_solver ~accountant:acc inst)
    in
    let wrapped =
      {
        Problem.solve =
          (fun ~d ~rhs ->
            (* Timed by hand: a span per solve would be ~10^5 spans per
               operation. *)
            let t0 = now () in
            let y = solver.Problem.solve ~d ~rhs in
            normal_s := !normal_s +. (now () -. t0);
            incr normal_solves;
            y);
        rounds = solver.Problem.rounds;
      }
    in
    let mm = float_of_int (Stdlib.max (Network.max_capacity net) (Network.max_cost net)) in
    let x, trace =
      span tracer "lp.ipm" @@ fun () ->
      Ipm.lp_solve ~accountant:acc ~config:Ipm.default_config ~prng
        ~problem:inst.Mcmf_lp.problem ~solver:wrapped ~x0:inst.Mcmf_lp.x0
        ~eps:(1.0 /. (12.0 *. mm)) ()
    in
    let flow = Mcmf_lp.round_flow inst x in
    let (_ : Mcmf.result) = span tracer "flow.baseline" (fun () -> Mcmf.solve net) in
    (flow, trace.Ipm.iterations)
  in
  Layers.record "ipm_iterations" (float_of_int iterations);
  Layers.record "normal_solves" (float_of_int !normal_solves);
  Layers.record "normal_solve_s" (!normal_s /. float_of_int (Stdlib.max 1 !normal_solves));
  Layers.record "normal_total_s" !normal_s;
  (flow, Rounds.rounds acc, Rounds.bits acc)

let op (nv, s) =
  let net =
    Network.random (Prng.create s) ~n:nv ~density:0.5 ~max_capacity:8 ~max_cost:8
  in
  let onet = to_oracle net in
  let front = ref None in
  let run tracer =
    match tracer with
    | None ->
        let r = Lbcc.min_cost_max_flow ~ctx:(Ctx.make ~seed:ctx_seed ()) net in
        front := Some r;
        fun () ->
          certify onet ~flow:r.Lbcc.flow ~value:r.Lbcc.value ~cost:r.Lbcc.cost
            ~rounds:r.Lbcc.rounds.Lbcc.total ~bits:r.Lbcc.rounds.Lbcc.bits
    | Some tr ->
        let fr =
          match !front with
          | Some fr -> fr
          | None -> failwith "traced flow run before its untraced run"
        in
        let flow, rounds, bits = traced_solve tr net fr in
        fun () -> certify onet ~flow ~value:fr.Lbcc.value ~cost:fr.Lbcc.cost ~rounds ~bits
  in
  {
    Runner.label = Printf.sprintf "|V|=%d network-seed=%d" nv s;
    cls = Printf.sprintf "|V|=%d" nv;
    known_fault = List.mem (nv, s) known_faults;
    run;
  }

let build () = Array.of_list (List.map op instances)

let layers ns _ =
  let open Layers in
  [
    ("lp.ipm_iterations", mean_of "ipm_iterations");
    ("lp.normal_solves", mean_of "normal_solves");
    ("lp.normal_solve_s", mean_of "normal_solve_s");
    ("lp.ipm_self_s", span_mean wall "lp.ipm" ns -. mean_of "normal_total_s");
    ("flow.prepare_s", span_mean wall "flow.prepare" ns);
    ("flow.baseline_s", span_mean wall "flow.baseline" ns);
  ]

(* Wall time of one round (10 flows) on the reference host, a 2-vCPU
   virtual machine on one lane; a 20-s run therefore does 2 rounds. *)
let round_s = 11.0

let main args = Runner.main ~args ~round_s ~build ~layers
