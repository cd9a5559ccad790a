open Lbcc_util
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Sparsify = Lbcc_sparsifier.Sparsify
module Apriori = Lbcc_sparsifier.Apriori
module Certify = Lbcc_sparsifier.Certify

let test_defaults () =
  Alcotest.(check int) "k default" 6 (Sparsify.default_k ~n:64);
  Alcotest.(check int) "iterations default" 10 (Sparsify.default_iterations ~m:1000);
  Alcotest.(check bool) "t grows as eps shrinks" true
    (Sparsify.default_t ~n:64 ~epsilon:0.1 > Sparsify.default_t ~n:64 ~epsilon:1.0)

let test_preserves_connectivity () =
  for seed = 1 to 4 do
    let prng = Prng.create seed in
    let g = Gen.erdos_renyi_connected prng ~n:48 ~p:0.4 ~w_max:8 in
    let r = Sparsify.run ~prng:(Prng.create (seed + 10)) ~graph:g ~epsilon:0.5 ~t:2 ~k:3 () in
    Alcotest.(check bool) "connected" true (Graph.is_connected r.Sparsify.sparsifier)
  done

let test_weights_are_powers_of_four () =
  let prng = Prng.create 5 in
  let g = Gen.erdos_renyi_connected prng ~n:40 ~p:0.4 ~w_max:1 in
  let r = Sparsify.run ~prng:(Prng.create 6) ~graph:g ~epsilon:0.5 ~t:2 ~k:3 () in
  Array.iter
    (fun e ->
      let w = e.Graph.w in
      let log4 = log w /. log 4.0 in
      Alcotest.(check bool)
        (Printf.sprintf "weight %g is a power of 4" w)
        true
        (Float.abs (log4 -. Float.round log4) < 1e-9))
    (Graph.edges r.Sparsify.sparsifier)

let test_edge_origin_valid () =
  let prng = Prng.create 7 in
  let g = Gen.erdos_renyi_connected prng ~n:32 ~p:0.4 ~w_max:4 in
  let r = Sparsify.run ~prng:(Prng.create 8) ~graph:g ~epsilon:0.5 ~t:2 ~k:3 () in
  Array.iteri
    (fun pos orig ->
      let se = Graph.edge r.Sparsify.sparsifier pos in
      let ge = Graph.edge g orig in
      Alcotest.(check bool) "same endpoints" true
        ((se.Graph.u = ge.Graph.u && se.Graph.v = ge.Graph.v)
        || (se.Graph.u = ge.Graph.v && se.Graph.v = ge.Graph.u)))
    r.Sparsify.edge_origin

let test_quality_improves_with_t () =
  let prng = Prng.create 9 in
  let g = Gen.erdos_renyi_connected prng ~n:48 ~p:0.6 ~w_max:1 in
  let eps_of t =
    let runs =
      List.init 3 (fun s ->
          let r =
            Sparsify.run ~prng:(Prng.create (100 + s)) ~graph:g ~epsilon:0.5 ~t ~k:3 ()
          in
          (Certify.exact g r.Sparsify.sparsifier).Certify.epsilon_achieved)
    in
    List.fold_left ( +. ) 0.0 runs /. 3.0
  in
  let e1 = eps_of 1 and e6 = eps_of 6 in
  Alcotest.(check bool)
    (Printf.sprintf "eps(t=6)=%.3f < eps(t=1)=%.3f" e6 e1)
    true (e6 < e1)

let test_large_t_gives_good_sparsifier () =
  let prng = Prng.create 11 in
  let g = Gen.erdos_renyi_connected prng ~n:40 ~p:0.5 ~w_max:2 in
  let r = Sparsify.run ~prng:(Prng.create 12) ~graph:g ~epsilon:0.5 ~t:12 ~k:3 () in
  let c = Certify.exact g r.Sparsify.sparsifier in
  Alcotest.(check bool)
    (Printf.sprintf "achieved eps %.3f < 0.75" c.Certify.epsilon_achieved)
    true
    (c.Certify.epsilon_achieved < 0.75)

let test_certify_identity () =
  let prng = Prng.create 13 in
  let g = Gen.erdos_renyi_connected prng ~n:24 ~p:0.3 ~w_max:5 in
  let c = Certify.exact g g in
  Alcotest.(check (float 1e-6)) "graph certifies itself at eps 0" 0.0
    c.Certify.epsilon_achieved

let test_certify_scaled () =
  let prng = Prng.create 14 in
  let g = Gen.erdos_renyi_connected prng ~n:24 ~p:0.3 ~w_max:5 in
  let h = Graph.map_weights (fun _ e -> 2.0 *. e.Graph.w) g in
  let c = Certify.exact g h in
  (* L_G = (1/2) L_H: lambda in [0.5, 0.5], eps achieved = 0.5. *)
  Alcotest.(check (float 1e-6)) "eps of doubling" 0.5 c.Certify.epsilon_achieved

let test_is_sparsifier_predicate () =
  let prng = Prng.create 18 in
  let g = Gen.erdos_renyi_connected prng ~n:20 ~p:0.4 ~w_max:2 in
  let within h epsilon = (Certify.exact g h).Certify.epsilon_achieved <= epsilon in
  Alcotest.(check bool) "self" true (within g 0.01);
  let h = Graph.map_weights (fun _ e -> 3.0 *. e.Graph.w) g in
  Alcotest.(check bool) "tripled fails at eps=0.5" false (within h 0.5)

(* Lemma 3.3: ad-hoc and a-priori sampling give the same output
   distribution; compare sparsifier sizes across seeds. *)
let test_adhoc_vs_apriori_distribution () =
  let prng = Prng.create 19 in
  let g = Gen.erdos_renyi_connected prng ~n:36 ~p:0.5 ~w_max:1 in
  let runs = 12 in
  let sizes_adhoc =
    Array.init runs (fun s ->
        let r =
          Sparsify.run ~prng:(Prng.create (500 + s)) ~graph:g ~epsilon:0.5 ~t:2 ~k:3 ()
        in
        float_of_int (Graph.m r.Sparsify.sparsifier))
  in
  let sizes_apriori =
    Array.init runs (fun s ->
        let r =
          Apriori.run ~prng:(Prng.create (900 + s)) ~graph:g ~epsilon:0.5 ~t:2 ~k:3 ()
        in
        float_of_int (Graph.m r.Apriori.sparsifier))
  in
  let ma = Stats.mean sizes_adhoc and mb = Stats.mean sizes_apriori in
  let sd = Float.max (Stats.stddev sizes_adhoc) (Stats.stddev sizes_apriori) in
  Alcotest.(check bool)
    (Printf.sprintf "means %.1f vs %.1f (sd %.1f)" ma mb sd)
    true
    (Float.abs (ma -. mb) <= Float.max (3.0 *. sd) (0.1 *. ma))

let test_apriori_quality_similar () =
  let prng = Prng.create 20 in
  let g = Gen.erdos_renyi_connected prng ~n:32 ~p:0.5 ~w_max:1 in
  let r = Apriori.run ~prng:(Prng.create 21) ~graph:g ~epsilon:0.5 ~t:8 ~k:3 () in
  let c = Certify.exact g r.Apriori.sparsifier in
  Alcotest.(check bool) "apriori quality reasonable" true
    (c.Certify.epsilon_achieved < 1.0)

let test_out_degree_bound () =
  let prng = Prng.create 22 in
  let g = Gen.erdos_renyi_connected prng ~n:48 ~p:0.6 ~w_max:1 in
  let r = Sparsify.run ~prng:(Prng.create 23) ~graph:g ~epsilon:0.5 ~t:3 ~k:3 () in
  let deg = Sparsify.out_degrees r in
  let total = Array.fold_left ( + ) 0 deg in
  Alcotest.(check int) "orientations cover all sparsifier edges"
    (Graph.m r.Sparsify.sparsifier) total;
  (* Theorem 1.2: out-degree O(t * k * n^{1/k}) with calibrated t. *)
  let bound = 10 * 3 * 3 * int_of_float (48.0 ** (1.0 /. 3.0)) in
  Alcotest.(check bool) "max out-degree bounded" true
    (Array.fold_left Stdlib.max 0 deg <= bound)

let test_rounds_positive_and_scaling () =
  let prng = Prng.create 24 in
  let g = Gen.erdos_renyi_connected prng ~n:24 ~p:0.4 ~w_max:3 in
  let r1 = Sparsify.run ~prng:(Prng.create 25) ~graph:g ~epsilon:0.5 ~t:1 ~k:3 () in
  let r3 = Sparsify.run ~prng:(Prng.create 25) ~graph:g ~epsilon:0.5 ~t:3 ~k:3 () in
  Alcotest.(check bool) "rounds positive" true (r1.Sparsify.rounds > 0);
  Alcotest.(check bool) "more spanners cost more rounds" true
    (r3.Sparsify.rounds > r1.Sparsify.rounds)

let test_power_matches_exact () =
  let prng = Prng.create 25 in
  let g = Gen.erdos_renyi_connected prng ~n:40 ~p:0.4 ~w_max:4 in
  let r = Sparsify.run ~prng:(Prng.create 26) ~graph:g ~epsilon:0.5 ~t:3 ~k:3 () in
  let h = r.Sparsify.sparsifier in
  let ex = Certify.exact g h in
  let pw = Certify.power (Prng.create 27) g h ~iters:200 in
  Alcotest.(check bool)
    (Printf.sprintf "lmax power %.4f vs exact %.4f" pw.Certify.lambda_max
       ex.Certify.lambda_max)
    true
    (Float.abs (pw.Certify.lambda_max -. ex.Certify.lambda_max)
    < 0.05 *. ex.Certify.lambda_max);
  Alcotest.(check bool)
    (Printf.sprintf "lmin power %.4f vs exact %.4f" pw.Certify.lambda_min
       ex.Certify.lambda_min)
    true
    (Float.abs (pw.Certify.lambda_min -. ex.Certify.lambda_min)
    < 0.05 *. Float.max ex.Certify.lambda_min 1e-6)

let test_power_identity () =
  let prng = Prng.create 28 in
  let g = Gen.torus prng ~rows:5 ~cols:5 ~w_max:3 in
  let c = Certify.power (Prng.create 29) g g ~iters:50 in
  Alcotest.(check (float 1e-6)) "lmin" 1.0 c.Certify.lambda_min;
  Alcotest.(check (float 1e-6)) "lmax" 1.0 c.Certify.lambda_max

(* [bound] is exact up to n = 400 and widens 60 power iterations by the
   1.15 margin above, so H = G reads eps = 0.15 there. *)
let test_bound_rule () =
  let g = Gen.erdos_renyi_connected (Prng.create 30) ~n:40 ~p:0.3 ~w_max:4 in
  let h = Graph.map_weights (fun _ e -> 2.0 *. e.Graph.w) g in
  Alcotest.(check bool) "exact below 401" true
    (Certify.bound (Prng.create 1) g h = Certify.exact g h);
  let g =
    Gen.erdos_renyi_connected (Prng.create 41) ~n:420 ~p:(24.0 /. 420.0) ~w_max:8
  in
  let c = Certify.bound (Prng.create 1) g g in
  Alcotest.(check (float 1e-9)) "lmin widened" (1.0 /. 1.15) c.Certify.lambda_min;
  Alcotest.(check (float 1e-9)) "lmax widened" 1.15 c.Certify.lambda_max;
  Alcotest.(check (float 1e-9)) "eps of the margin" 0.15 c.Certify.epsilon_achieved

let suites =
  [
    ( "sparsifier.basic",
      [
        Alcotest.test_case "defaults" `Quick test_defaults;
        Alcotest.test_case "connectivity" `Quick test_preserves_connectivity;
        Alcotest.test_case "weights powers of 4" `Quick test_weights_are_powers_of_four;
        Alcotest.test_case "edge origin" `Quick test_edge_origin_valid;
        Alcotest.test_case "out-degree" `Quick test_out_degree_bound;
        Alcotest.test_case "rounds" `Quick test_rounds_positive_and_scaling;
      ] );
    ( "sparsifier.quality",
      [
        Alcotest.test_case "improves with t" `Slow test_quality_improves_with_t;
        Alcotest.test_case "large t good" `Slow test_large_t_gives_good_sparsifier;
        Alcotest.test_case "certify identity" `Quick test_certify_identity;
        Alcotest.test_case "certify scaled" `Quick test_certify_scaled;
        Alcotest.test_case "is_sparsifier" `Quick test_is_sparsifier_predicate;
        Alcotest.test_case "power matches exact" `Quick test_power_matches_exact;
        Alcotest.test_case "power identity" `Quick test_power_identity;
        Alcotest.test_case "bound rule" `Quick test_bound_rule;
      ] );
    ( "sparsifier.lemma33",
      [
        Alcotest.test_case "adhoc vs apriori sizes" `Slow
          test_adhoc_vs_apriori_distribution;
        Alcotest.test_case "apriori quality" `Slow test_apriori_quality_similar;
      ] );
  ]
