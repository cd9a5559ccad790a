(* The shared protocol-fingerprint table.

   One place defines "a run's exact identity": final states (floats by bit
   pattern), engine stats, fault outcomes and the accountant's hierarchical
   breakdowns, rendered as a string.  Two consumers compare the protocol
   fingerprints:

   - test_determinism.ml: sequential vs. parallel (1 = 2 = 4 domains);
   - test_fingerprints.ml + `make fingerprints`: the checked-in golden file
     test/fingerprints.expected, pinning today's values against future
     regressions (and documenting exactly what "bit-identical" means).

   Every fingerprint function takes a fresh accountant and fault plan per
   run — fault plans are stateful (adversarial drop budgets burn as
   queried), so sharing one across runs would corrupt the comparison. *)

open Lbcc_util
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Model = Lbcc_net.Model
module Rounds = Lbcc_net.Rounds
module Fault = Lbcc_net.Fault
module Bfs = Lbcc_dist.Bfs
module Sssp = Lbcc_dist.Sssp
module Leader = Lbcc_dist.Leader
module Spanner = Lbcc_spanner.Spanner
module Bundle = Lbcc_sparsifier.Bundle
module Sparsify = Lbcc_sparsifier.Sparsify
module Apriori = Lbcc_sparsifier.Apriori
module Solver = Lbcc_laplacian.Solver
module Prepared = Lbcc_service.Prepared
module Ctx = Lbcc_service.Ctx
module Cache = Lbcc_service.Cache
module Network = Lbcc_flow.Network
module Mcmf_lp = Lbcc_flow.Mcmf_lp
module Vec = Lbcc_linalg.Vec

let seeds = List.init 10 (fun i -> i + 1)

let graph_of ?(w_max = 8) seed =
  Gen.erdos_renyi_connected (Prng.create seed) ~n:40 ~p:0.15 ~w_max

let faults_of seed =
  Fault.create ~seed
    (Fault.spec ~drop_prob:0.15 ~duplicate_prob:0.1 ~crashes:[ (1, 3) ]
       ~adversarial_drops:2 ())

(* Exact fingerprints: ints verbatim, floats by their bit pattern. *)
let ints a = String.concat "," (List.map string_of_int (Array.to_list a))

let floats a =
  String.concat ","
    (List.map
       (fun f -> Printf.sprintf "%Lx" (Int64.bits_of_float f))
       (Array.to_list a))

let int_list l = ints (Array.of_list l)

let pairs a =
  String.concat ","
    (List.map (fun (u, v) -> Printf.sprintf "%d>%d" u v) (Array.to_list a))

(* A graph by its edges, weights by bit pattern. *)
let edges_fp h =
  Array.to_list (Graph.edges h)
  |> List.map (fun (e : Graph.edge) ->
         Printf.sprintf "%d-%d:%Lx" e.Graph.u e.Graph.v
           (Int64.bits_of_float e.Graph.w))
  |> String.concat ","

(* The spanner and bundle rows' input: the protocol graph with per-edge
   survival probabilities drawn from [0.2, 1). *)
let probabilistic_input ?w_max seed =
  let g = graph_of ?w_max seed in
  let prng = Prng.create (seed + 300) in
  (g, Array.init (Graph.m g) (fun _ -> 0.2 +. (0.8 *. Prng.float prng)))

let acct_fp acc =
  let flat kvs =
    String.concat ";" (List.map (fun (l, r) -> Printf.sprintf "%s=%d" l r) kvs)
  in
  flat (Rounds.breakdown acc) ^ "|" ^ flat (Rounds.bits_breakdown acc)

let with_acct f =
  let acc = Rounds.create ~bandwidth:16 in
  let fp = f acc in
  fp ^ "|" ^ acct_fp acc

let spanner_fp ?w_max seed acc =
  let graph, p = probabilistic_input ?w_max seed in
  let r =
    Spanner.run_on ~accountant:acc ~prng:(Prng.create (seed + 400)) ~k:3
      (Spanner.state ~graph ~p)
  in
  let clusters = Array.map (Option.value ~default:(-1)) r.Spanner.clusters in
  Printf.sprintf "%s|%s|%s|%s|%d|%d|%b" (int_list r.Spanner.fplus)
    (int_list r.Spanner.fminus) (pairs r.Spanner.orientation) (ints clusters)
    r.Spanner.rounds r.Spanner.supersteps r.Spanner.views_agree

(* protocol name, fingerprint of one full run. *)
let protocols =
  [
    ( "bfs clique",
      fun seed ->
        with_acct (fun acc ->
            let r =
              Bfs.run ~accountant:acc ~model:Model.broadcast_congested_clique
                ~graph:(graph_of seed) ~source:0 ()
            in
            Printf.sprintf "%s|%s|%d|%d|%b" (ints r.Bfs.dist)
              (ints r.Bfs.parent) r.Bfs.rounds r.Bfs.supersteps r.Bfs.converged)
    );
    ( "bfs faulty",
      fun seed ->
        with_acct (fun acc ->
            let r =
              Bfs.run ~accountant:acc ~faults:(faults_of seed)
                ~model:Model.broadcast_congest ~graph:(graph_of seed) ~source:0
                ()
            in
            Printf.sprintf "%s|%s|%d|%d|%b" (ints r.Bfs.dist)
              (ints r.Bfs.parent) r.Bfs.rounds r.Bfs.supersteps r.Bfs.converged)
    );
    ( "sssp",
      fun seed ->
        with_acct (fun acc ->
            let r =
              Sssp.run ~accountant:acc ~model:Model.broadcast_congest
                ~graph:(graph_of seed) ~source:0 ()
            in
            Printf.sprintf "%s|%s|%d|%d|%b" (floats r.Sssp.dist)
              (ints r.Sssp.parent) r.Sssp.rounds r.Sssp.supersteps
              r.Sssp.converged) );
    ( "sssp faulty",
      fun seed ->
        with_acct (fun acc ->
            let r =
              Sssp.run ~accountant:acc ~faults:(faults_of seed)
                ~model:Model.broadcast_congest ~graph:(graph_of seed) ~source:0
                ()
            in
            Printf.sprintf "%s|%s|%d|%d|%b" (floats r.Sssp.dist)
              (ints r.Sssp.parent) r.Sssp.rounds r.Sssp.supersteps
              r.Sssp.converged) );
    ( "leader",
      fun seed ->
        with_acct (fun acc ->
            let r =
              Leader.run ~accountant:acc ~model:Model.broadcast_congest
                ~graph:(graph_of seed) ()
            in
            Printf.sprintf "%d|%d|%d|%b" r.Leader.leader r.Leader.rounds
              r.Leader.supersteps r.Leader.converged) );
    ( "reliable bfs faulty",
      fun seed ->
        with_acct (fun acc ->
            let r =
              Bfs.run ~reliability:Model.Crash_safe ~accountant:acc
                ~faults:(faults_of seed)
                ~model:Model.broadcast_congest ~graph:(graph_of seed) ~source:0
                ()
            in
            Printf.sprintf "%s|%s|%d|%d|%b" (ints r.Bfs.dist)
              (ints r.Bfs.parent) r.Bfs.rounds r.Bfs.supersteps r.Bfs.converged)
    );
    ( "reliable sssp faulty",
      fun seed ->
        with_acct (fun acc ->
            let r =
              Sssp.run_reliable ~accountant:acc ~faults:(faults_of seed)
                ~model:Model.broadcast_congest ~graph:(graph_of seed) ~source:0
                ()
            in
            Printf.sprintf "%s|%s|%d|%d|%b" (floats r.Sssp.dist)
              (ints r.Sssp.parent) r.Sssp.rounds r.Sssp.supersteps
              r.Sssp.converged) );
    ( "reliable leader crash+dup",
      (* Combined crash-stop and duplication schedule: the ack/retransmit
         layer has to suspect the crashed vertex and dedupe the copies in
         the same run. *)
      fun seed ->
        with_acct (fun acc ->
            let faults =
              Fault.create ~seed
                (Fault.spec ~drop_prob:0.1 ~duplicate_prob:0.25
                   ~crashes:[ (2, 4); (5, 2) ] ())
            in
            let r =
              Leader.run ~reliability:Model.Crash_safe ~accountant:acc ~faults
                ~model:Model.broadcast_congest ~graph:(graph_of seed) ()
            in
            Printf.sprintf "%d|%d|%d|%b" r.Leader.leader r.Leader.rounds
              r.Leader.supersteps r.Leader.converged) );
    ( "byzantine bfs equivocating",
      fun seed ->
        with_acct (fun acc ->
            let g = graph_of seed in
            let faults =
              Fault.create ~seed
                (Fault.spec
                   ~byzantine:
                     (List.init (Fault.max_tolerated ~n:(Graph.n g)) Fun.id)
                   ~byz_prob:0.15 ())
            in
            let r =
              Bfs.run ~accountant:acc ~faults ~reliability:Model.Byzantine_safe
                ~model:Model.broadcast_congested_clique ~graph:g ~source:0 ()
            in
            let d = Option.get r.Bfs.byz in
            Printf.sprintf "%s|%s|%d|%d|%b|%d|%d|%d" (ints r.Bfs.dist)
              (ints r.Bfs.parent) r.Bfs.rounds r.Bfs.supersteps r.Bfs.converged
              d.Lbcc_net.Byzantine.Diag.echo_rounds
              d.Lbcc_net.Byzantine.Diag.repairs_served
              d.Lbcc_net.Byzantine.Diag.quorum_failures) );
    ( "sparsifier",
      fun seed ->
        with_acct (fun acc ->
            let g =
              Gen.erdos_renyi_connected (Prng.create seed) ~n:24 ~p:0.3
                ~w_max:8
            in
            let r =
              Sparsify.run ~accountant:acc ~prng:(Prng.create (seed + 100))
                ~graph:g ~epsilon:0.5 ()
            in
            Printf.sprintf "%s|%s|%d|%d" (edges_fp r.Sparsify.sparsifier)
              (ints
                 (Spanner.out_degrees ~n:(Graph.n g) r.Sparsify.orientation))
              r.Sparsify.rounds r.Sparsify.final_sampled) );
    ( "spanner",
      (* Lemma 3.1 with probabilistic edges at k = 3. *)
      fun seed -> with_acct (spanner_fp seed) );
    ( "spanner wide weights",
      (* The spanner row at weights up to 2^40.  Join and Connect_ok
         messages carry a weight, so here they differ in size, and a
         stage's charge per queue position shows in the rounds. *)
      fun seed -> with_acct (spanner_fp ~w_max:(1 lsl 40) seed) );
    ( "bundle",
      (* Algorithm 3: a t = 3 bundle of the spanner row's spanners. *)
      fun seed ->
        with_acct (fun acc ->
            let graph, p = probabilistic_input seed in
            let st = Spanner.state ~graph ~p in
            let b =
              Bundle.run ~accountant:acc ~prng:(Prng.create (seed + 400)) ~k:3
                ~t:3 st
            in
            let orientation =
              List.map
                (fun e ->
                  let from_ = st.Spanner.tail.(e) in
                  (from_, Graph.other_endpoint (Graph.edge graph e) from_))
                b.Bundle.bundle
            in
            Printf.sprintf "%s|%s|%s" (int_list b.Bundle.bundle)
              (int_list b.Bundle.rejected)
              (pairs (Array.of_list orientation))) );
    ( "sparsifier t=2",
      (* The small bundle size the prepare workload runs, at n = 64. *)
      fun seed ->
        with_acct (fun acc ->
            let g =
              Gen.erdos_renyi_connected (Prng.create seed) ~n:64 ~p:0.3
                ~w_max:8
            in
            let r =
              Sparsify.run ~accountant:acc ~prng:(Prng.create (seed + 100))
                ~graph:g ~epsilon:0.5 ~t:2 ()
            in
            Printf.sprintf "%s|%s|%s|%s|%d|%d" (edges_fp r.Sparsify.sparsifier)
              (pairs r.Sparsify.orientation) (ints r.Sparsify.edge_origin) (int_list r.Sparsify.bundle_sizes)
              r.Sparsify.rounds r.Sparsify.final_sampled) );
    ( "apriori",
      (* Algorithm 4 as experiment E4 runs it. *)
      fun seed ->
        let g =
          Gen.erdos_renyi_connected (Prng.create seed) ~n:36 ~p:0.5 ~w_max:1
        in
        let r =
          Apriori.run ~prng:(Prng.create (700 + seed)) ~graph:g ~epsilon:0.5
            ~t:2 ~k:3 ()
        in
        Printf.sprintf "%s|%s|%s" (edges_fp r.Apriori.sparsifier)
          (ints r.Apriori.edge_origin) (int_list r.Apriori.bundle_sizes) );
    ( "laplacian solve",
      (* Theorem 1.3 on the sparsifier row's graph: preprocessing, the
         certified kappa and one high-accuracy Chebyshev solve. *)
      fun seed ->
        with_acct (fun acc ->
            let g =
              Gen.erdos_renyi_connected (Prng.create seed) ~n:24 ~p:0.3
                ~w_max:8
            in
            let s =
              Solver.preprocess ~accountant:acc
                ~prng:(Prng.create (seed + 100)) ~graph:g ()
            in
            let b =
              let prng = Prng.create (seed + 200) in
              Vec.mean_center (Vec.init (Graph.n g) (fun _ -> Prng.gaussian prng))
            in
            let r = Solver.solve ~accountant:acc s ~b ~eps:1e-8 in
            Printf.sprintf "%Lx|%d|%d|%d|%s"
              (Int64.bits_of_float (Solver.kappa s))
              r.Solver.iterations r.Solver.rounds r.Solver.bits
              (floats r.Solver.solution)) );
    ( "laplacian solve t=2",
      (* The laplacian solve row at bundle size 2, where H drops edges of G
         (the leading m(H)/m(G) field), so the certified kappa is that of a
         pencil with H <> G. *)
      fun seed ->
        with_acct (fun acc ->
            let g =
              Gen.erdos_renyi_connected (Prng.create seed) ~n:24 ~p:0.3
                ~w_max:8
            in
            let s =
              Solver.preprocess ~accountant:acc ~t:2
                ~prng:(Prng.create (seed + 100)) ~graph:g ()
            in
            let b =
              let prng = Prng.create (seed + 200) in
              Vec.mean_center (Vec.init (Graph.n g) (fun _ -> Prng.gaussian prng))
            in
            let r = Solver.solve ~accountant:acc s ~b ~eps:1e-8 in
            Printf.sprintf "%d/%d|%Lx|%d|%d|%d"
              (Graph.m (Solver.sparsifier s)) (Graph.m g)
              (Int64.bits_of_float (Solver.kappa s))
              r.Solver.iterations r.Solver.rounds r.Solver.bits) );
    ( "prepared update",
      (* The service layer's incremental path: a prepared handle patched by
         one reweight and one insert through update_cached, which
         re-sparsifies, re-factors and re-certifies the patched H. *)
      fun seed ->
        with_acct (fun acc ->
            let g =
              Gen.erdos_renyi_connected (Prng.create seed) ~n:24 ~p:0.3
                ~w_max:8
            in
            let p = Prepared.create ~ctx:(Ctx.make ~seed:(seed + 100) ()) ~t:2 g in
            let delta =
              Graph.Delta.of_ops
                [
                  Graph.Delta.Reweight (0, 3.0);
                  Graph.Delta.Insert { Graph.u = 0; v = Graph.n g - 1; w = 2.0 };
                ]
            in
            let q =
              Prepared.update_cached ~cache:(Cache.create ()) ~accountant:acc p
                delta
            in
            let s = Prepared.solver q in
            Printf.sprintf "%d|%d|%Lx|%s" (Prepared.preprocessing_rounds q)
              (Prepared.preprocessing_bits q)
              (Int64.bits_of_float (Solver.kappa s))
              (edges_fp (Solver.sparsifier s))) );
    ( "mcmf",
      (* Theorem 1.1 end to end: LP build, the IPM with the Laplacian-backed
         normal solver, rounding and the comparison with the baseline. *)
      fun seed ->
        with_acct (fun acc ->
            let net =
              Network.random (Prng.create seed) ~n:6 ~density:0.5
                ~max_capacity:8 ~max_cost:8
            in
            let r = Mcmf_lp.solve ~accountant:acc ~prng:(Prng.create 3) net in
            Printf.sprintf "%d|%d|%b|%b|%d|%d|%d|%Lx" r.Mcmf_lp.value
              r.Mcmf_lp.cost r.Mcmf_lp.feasible r.Mcmf_lp.matches_baseline
              r.Mcmf_lp.iterations r.Mcmf_lp.rounds (Rounds.bits acc)
              (Int64.bits_of_float r.Mcmf_lp.lp_objective)) );
  ]

(* The golden file keeps a readable subset of the seed range (the full
   cross product lives in the test suites).  Raw fingerprint strings are
   checked in rather than digests of them: when a value drifts, the diff
   shows which field moved. *)
let golden_seeds = [ 1; 5; 10 ]

(* One golden line: "<protocol>\t<seed>\t<fingerprint>".  Protocol names
   contain spaces but never tabs. *)
let golden_lines () =
  List.concat_map
    (fun (name, f) ->
      List.map
        (fun seed -> Printf.sprintf "%s\t%d\t%s" name seed (f seed))
        golden_seeds)
    protocols
