open Lbcc_util
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Sparsify = Lbcc_sparsifier.Sparsify
module Apriori = Lbcc_sparsifier.Apriori
module Certify = Lbcc_sparsifier.Certify
module Vec = Lbcc_linalg.Vec
module Dense = Lbcc_linalg.Dense
module Exact = Lbcc_laplacian.Exact

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
          (Certify.bound g r.Sparsify.sparsifier).Certify.epsilon_achieved)
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
  let c = Certify.bound g r.Sparsify.sparsifier in
  Alcotest.(check bool)
    (Printf.sprintf "achieved eps %.3f < 0.75" c.Certify.epsilon_achieved)
    true
    (c.Certify.epsilon_achieved < 0.75)

let test_certify_identity () =
  let prng = Prng.create 13 in
  let g = Gen.erdos_renyi_connected prng ~n:24 ~p:0.3 ~w_max:5 in
  let c = Certify.bound g g in
  Alcotest.(check (float 1e-5)) "lambda_min" 1.0 c.Certify.lambda_min;
  Alcotest.(check (float 1e-5)) "lambda_max" 1.0 c.Certify.lambda_max;
  Alcotest.(check (float 1e-5)) "graph certifies itself at eps 0" 0.0
    c.Certify.epsilon_achieved

let test_certify_scaled () =
  let prng = Prng.create 14 in
  let g = Gen.erdos_renyi_connected prng ~n:24 ~p:0.3 ~w_max:5 in
  let h = Graph.map_weights (fun _ e -> 2.0 *. e.Graph.w) g in
  let c = Certify.bound g h in
  (* L_G = (1/2) L_H: lambda in [0.5, 0.5], eps achieved = 0.5. *)
  Alcotest.(check (float 1e-5)) "lambda_min" 0.5 c.Certify.lambda_min;
  Alcotest.(check (float 1e-5)) "lambda_max" 0.5 c.Certify.lambda_max;
  Alcotest.(check (float 1e-5)) "eps of doubling" 0.5 c.Certify.epsilon_achieved

let test_is_sparsifier_predicate () =
  let prng = Prng.create 18 in
  let g = Gen.erdos_renyi_connected prng ~n:20 ~p:0.4 ~w_max:2 in
  let within h epsilon = (Certify.bound g h).Certify.epsilon_achieved <= epsilon in
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
  let c = Certify.bound g r.Apriori.sparsifier in
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

(* x^T L_G x / x^T L_H x: every such quotient lies in
   [lambda_min, lambda_max], so each one is a witness the certificate
   must not cross. *)
let rayleigh g h x =
  Vec.dot x (Graph.apply_laplacian g x) /. Vec.dot x (Graph.apply_laplacian h x)

(* The top of the pencil (L_A, L_B) from inside: 300 power iterations on
   L_B^+ L_A, five times the certificate's own estimate. *)
let power_vector prng a b =
  let fb = Exact.factor b in
  let y = ref (Vec.mean_center (Vec.init (Graph.n a) (fun _ -> Prng.gaussian prng))) in
  for _ = 1 to 300 do
    let z = Exact.solve fb (Graph.apply_laplacian a !y) in
    y := Vec.scale (1.0 /. Vec.norm2 z) z
  done;
  !y

(* The extreme Rayleigh quotients of (L_G, L_H) over the two power vectors
   and eight random vectors: the best witnesses without an eigensolver. *)
let witnesses prng g h =
  let random () =
    Vec.mean_center (Vec.init (Graph.n g) (fun _ -> Prng.gaussian prng))
  in
  let xs =
    power_vector prng g h :: power_vector prng h g
    :: List.init 8 (fun _ -> random ())
  in
  let qs = List.map (rayleigh g h) xs in
  (List.fold_left Float.min infinity qs, List.fold_left Float.max 0.0 qs)

let er_pencil ~seed ~n ~t =
  let g = Gen.erdos_renyi_connected (Prng.create seed) ~n ~p:0.3 ~w_max:8 in
  let r = Sparsify.run ~t ~prng:(Prng.create (seed + 1)) ~graph:g ~epsilon:0.5 () in
  (g, r.Sparsify.sparsifier)

(* Sound (never inside a witness) and within 1% of the best witness on
   each side: together, within 1% of the truth. *)
let prop_bound_tight =
  QCheck.Test.make ~count:25 ~name:"bound tight vs rayleigh"
    QCheck.(triple (int_range 1 10_000) (int_range 8 64) (int_range 1 2))
    (fun (seed, n, t) ->
      let g, h = er_pencil ~seed ~n ~t in
      let c = Certify.bound g h in
      let rq_min, rq_max = witnesses (Prng.create seed) g h in
      c.Certify.lambda_max >= rq_max
      && c.Certify.lambda_max <= 1.01 *. rq_max
      && c.Certify.lambda_min <= rq_min
      && c.Certify.lambda_min >= rq_min /. 1.01)

(* [a L_H - b L_G] grounded at vertex 0. *)
let grounded_combination g h ~a ~b =
  let lg = Graph.laplacian_dense g and lh = Graph.laplacian_dense h in
  let k = Graph.n g - 1 in
  Dense.init k k (fun i j ->
      (a *. Dense.get lh (i + 1) (j + 1)) -. (b *. Dense.get lg (i + 1) (j + 1)))

(* The Cholesky test accepts at the certified bounds and rejects 0.1%
   inside the best witness, on both sides of default and thin bundles. *)
let test_cholesky_rejects_inside () =
  List.iter
    (fun (seed, t) ->
      let g, h = er_pencil ~seed ~n:48 ~t in
      let c = Certify.bound g h in
      let rq_min, rq_max = witnesses (Prng.create seed) g h in
      let proves ~a ~b =
        Dense.proves_positive_definite ~slack:0.0 (grounded_combination g h ~a ~b)
      in
      let label s = Printf.sprintf "seed %d t %d: %s" seed t s in
      Alcotest.(check bool) (label "accepts lambda_max") true
        (proves ~a:c.Certify.lambda_max ~b:1.0);
      Alcotest.(check bool) (label "rejects 0.999 rq_max") false
        (proves ~a:(0.999 *. rq_max) ~b:1.0);
      Alcotest.(check bool) (label "accepts lambda_min") true
        (proves ~a:(-.c.Certify.lambda_min) ~b:(-1.0));
      Alcotest.(check bool) (label "rejects rq_min / 0.999") false
        (proves ~a:(-.rq_min /. 0.999) ~b:(-1.0)))
    [ (1, 1); (2, 2); (3, Sparsify.default_t ~n:48 ~epsilon:0.5) ]

(* One rule at every n: H = G certifies itself to 1e-5 at n = 40 and at
   n = 420 alike. *)
let test_bound_rule () =
  let g = Gen.erdos_renyi_connected (Prng.create 30) ~n:40 ~p:0.3 ~w_max:4 in
  let c = Certify.bound g g in
  Alcotest.(check bool) "n = 40: eps <= 1e-5" true (c.Certify.epsilon_achieved <= 1e-5);
  let g =
    Gen.erdos_renyi_connected (Prng.create 41) ~n:420 ~p:(24.0 /. 420.0) ~w_max:8
  in
  let c = Certify.bound g g in
  Alcotest.(check bool)
    (Printf.sprintf "n = 420: eps %g <= 1e-5" c.Certify.epsilon_achieved)
    true
    (c.Certify.epsilon_achieved <= 1e-5)

(* Weights 1 and 1e16 alternating round a cycle: Rump's shift (about
   n u tr|M|) dwarfs the light edges' eigenvalues at every scale, so no
   bound can be confirmed and [bound] must raise instead of returning a
   kappa. *)
let test_bound_refuses_weight_spread () =
  let n = 8 in
  let g =
    Graph.create ~n
      (List.init n (fun i ->
           { Graph.u = i; v = (i + 1) mod n; w = (if i mod 2 = 0 then 1.0 else 1e16) }))
  in
  match Certify.bound g g with
  | c ->
      Alcotest.failf "certified lambda in [%g, %g] on a 1e16 weight spread"
        c.Certify.lambda_min c.Certify.lambda_max
  | exception Certify.Not_certified _ -> ()

let test_rejects_nan_epsilon () =
  let g = Gen.erdos_renyi_connected (Prng.create 24) ~n:12 ~p:0.5 ~w_max:2 in
  Alcotest.check_raises "sparsify"
    (Invalid_argument "Sparsify.run: epsilon must be positive") (fun () ->
      ignore (Sparsify.run ~prng:(Prng.create 1) ~graph:g ~epsilon:Float.nan ~t:1 ()));
  Alcotest.check_raises "apriori"
    (Invalid_argument "Apriori.run: epsilon must be positive") (fun () ->
      ignore (Apriori.run ~prng:(Prng.create 1) ~graph:g ~epsilon:Float.nan ~t:1 ()))

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
        Alcotest.test_case "rejects NaN epsilon" `Quick test_rejects_nan_epsilon;
      ] );
    ( "sparsifier.quality",
      [
        Alcotest.test_case "improves with t" `Slow test_quality_improves_with_t;
        Alcotest.test_case "large t good" `Slow test_large_t_gives_good_sparsifier;
        Alcotest.test_case "certify identity" `Quick test_certify_identity;
        Alcotest.test_case "certify scaled" `Quick test_certify_scaled;
        Alcotest.test_case "is_sparsifier" `Quick test_is_sparsifier_predicate;
        QCheck_alcotest.to_alcotest prop_bound_tight;
        Alcotest.test_case "cholesky rejects inside" `Quick test_cholesky_rejects_inside;
        Alcotest.test_case "bound rule" `Quick test_bound_rule;
        Alcotest.test_case "bound refuses 1e16 spread" `Quick
          test_bound_refuses_weight_spread;
      ] );
    ( "sparsifier.lemma33",
      [
        Alcotest.test_case "adhoc vs apriori sizes" `Slow
          test_adhoc_vs_apriori_distribution;
        Alcotest.test_case "apriori quality" `Slow test_apriori_quality_similar;
      ] );
  ]
