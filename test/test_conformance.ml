(* Theorem-conformance sweeps: the paper's per-theorem guarantees checked
   over many seeded PRNG draws on several graph families, not just the
   single fixed instances the unit suites use.

   - Lemma 3.1: spanner stretch <= 2k-1 and |F+| = O(k n^{1+1/k});
   - Theorem 1.2: the sparsifier is a (1 +- eps) spectral approximation
     (certified against the exact eigenvalue bracket);
   - Theorem 1.3: the solver meets its requested residual eps.

   Sizes are kept small (n ~ 25) so the 20-seed x 3-family sweeps stay in
   unit-test territory; the bench harness covers the large-n behavior. *)

open Lbcc_util
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Paths = Lbcc_graph.Paths
module Vec = Lbcc_linalg.Vec
module Spanner = Lbcc_spanner.Spanner
module Sparsify = Lbcc_sparsifier.Sparsify
module Certify = Lbcc_laplacian.Certify
module Exact = Lbcc_laplacian.Exact
module Solver = Lbcc_laplacian.Solver

let seeds = 20

let families =
  [
    ( "er",
      fun seed ->
        Gen.erdos_renyi_connected (Prng.create seed) ~n:26 ~p:0.3 ~w_max:6 );
    ("grid", fun seed -> Gen.grid (Prng.create seed) ~rows:5 ~cols:5 ~w_max:6);
    ( "geometric",
      fun seed ->
        Gen.random_geometric (Prng.create seed) ~n:26 ~radius:0.35 ~w_max:6 );
  ]

let sweep check =
  List.iter
    (fun (family, make) ->
      for seed = 1 to seeds do
        check ~family ~seed (make seed)
      done)
    families

let test_spanner_lemma_3_1 () =
  let k = 3 in
  sweep (fun ~family ~seed g ->
      let n = Graph.n g in
      let p = Array.make (Graph.m g) 1.0 in
      let r = Spanner.run ~prng:(Prng.create (1000 + seed)) ~graph:g ~p ~k () in
      let h = Graph.sub_edges g r.Spanner.fplus in
      let stretch = Paths.stretch g h in
      let ctx = Printf.sprintf "%s seed=%d" family seed in
      Alcotest.(check bool)
        (ctx ^ ": stretch <= 2k-1")
        true
        (stretch <= float_of_int ((2 * k) - 1) +. 1e-9);
      let nf = float_of_int n in
      let size_bound =
        float_of_int k *. (nf ** (1.0 +. (1.0 /. float_of_int k)))
      in
      Alcotest.(check bool)
        (ctx ^ ": |F+| <= k n^{1+1/k}")
        true
        (float_of_int (List.length r.Spanner.fplus) <= size_bound))

let test_sparsifier_theorem_1_2 () =
  let epsilon = 0.5 in
  sweep (fun ~family ~seed g ->
      let r =
        Sparsify.run
          ~prng:(Prng.create (2000 + seed))
          ~graph:g ~epsilon ~t:8 ~k:3 ()
      in
      let c = Certify.bound (Exact.factor g) (Exact.factor r.Sparsify.sparsifier) in
      Alcotest.(check bool)
        (Printf.sprintf "%s seed=%d: certified (1 +- %.1f)" family seed epsilon)
        true
        (c.Certify.epsilon_achieved <= epsilon +. 1e-9))

let test_solver_theorem_1_3 () =
  let eps = 1e-6 in
  sweep (fun ~family ~seed g ->
      let n = Graph.n g in
      let s =
        Solver.preprocess ~prng:(Prng.create (3000 + seed)) ~graph:g ~t:2 ~k:3 ()
      in
      let prng = Prng.create (4000 + seed) in
      let b = Vec.mean_center (Vec.init n (fun _ -> Prng.gaussian prng)) in
      let r = Solver.solve s ~b ~eps in
      Alcotest.(check bool)
        (Printf.sprintf "%s seed=%d: residual %.2e <= eps" family seed
           r.Solver.residual)
        true
        (r.Solver.residual <= eps))

let suites =
  [
    ( "conformance",
      [
        Alcotest.test_case "Lemma 3.1: spanner stretch and size" `Slow
          test_spanner_lemma_3_1;
        Alcotest.test_case "Theorem 1.2: sparsifier (1 +- eps)" `Slow
          test_sparsifier_theorem_1_2;
        Alcotest.test_case "Theorem 1.3: solver residual" `Slow
          test_solver_theorem_1_3;
      ] );
  ]
