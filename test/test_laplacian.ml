open Lbcc_util
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Vec = Lbcc_linalg.Vec
module Dense = Lbcc_linalg.Dense
module Exact = Lbcc_laplacian.Exact
module Solver = Lbcc_laplacian.Solver
module Gremban = Lbcc_laplacian.Gremban

let zero_sum_b prng n =
  Vec.mean_center (Vec.init n (fun _ -> Prng.gaussian prng))

(* ------------------------------------------------------------------ *)
(* Exact solver                                                        *)

let test_exact_residual_zero () =
  for seed = 1 to 5 do
    let prng = Prng.create seed in
    let g = Gen.erdos_renyi_connected prng ~n:30 ~p:0.3 ~w_max:6 in
    let b = zero_sum_b prng 30 in
    let x = Exact.solve_graph g b in
    Alcotest.(check bool) "residual tiny" true (Exact.residual g ~x ~b < 1e-9);
    Alcotest.(check (float 1e-9)) "zero mean" 0.0 (Vec.sum x)
  done

let test_exact_rejects_nonzero_sum () =
  let prng = Prng.create 6 in
  let g = Gen.ring prng ~n:6 in
  Alcotest.check_raises "nonzero sum"
    (Invalid_argument "Exact.solve: right-hand side must have zero sum per component")
    (fun () -> ignore (Exact.solve_graph g (Vec.ones 6)))

let test_exact_path_known_solution () =
  (* Unit path 0-1-2: L x = (1, 0, -1) has x = (1, 0, -1) up to constants. *)
  let g =
    Graph.create ~n:3 [ { Graph.u = 0; v = 1; w = 1.0 }; { u = 1; v = 2; w = 1.0 } ]
  in
  let x = Exact.solve_graph g [| 1.0; 0.0; -1.0 |] in
  Alcotest.(check (float 1e-9)) "x0 - x2 = effective resistance * current" 2.0
    (x.(0) -. x.(2));
  Alcotest.(check (float 1e-9)) "x1 centered" 0.0 x.(1)

let test_exact_disconnected_components () =
  let g =
    Graph.create ~n:4 [ { Graph.u = 0; v = 1; w = 1.0 }; { u = 2; v = 3; w = 2.0 } ]
  in
  let b = [| 1.0; -1.0; 2.0; -2.0 |] in
  let x = Exact.solve_graph g b in
  Alcotest.(check bool) "residual" true (Exact.residual g ~x ~b < 1e-9)

let test_exact_disconnected_bad_rhs () =
  let g =
    Graph.create ~n:4 [ { Graph.u = 0; v = 1; w = 1.0 }; { u = 2; v = 3; w = 1.0 } ]
  in
  (* Zero total sum but nonzero per component. *)
  Alcotest.check_raises "per-component zero sum"
    (Invalid_argument "Exact.solve: right-hand side must have zero sum per component")
    (fun () -> ignore (Exact.solve_graph g [| 1.0; 1.0; -1.0; -1.0 |]))

let test_laplacian_norm () =
  let g = Graph.create ~n:2 [ { Graph.u = 0; v = 1; w = 2.0 } ] in
  (* x^T L x = w (x0 - x1)^2 = 2 * 4 = 8 *)
  Alcotest.(check (float 1e-9)) "norm" (sqrt 8.0)
    (Exact.laplacian_norm g [| 1.0; -1.0 |])

(* ------------------------------------------------------------------ *)
(* Theorem 1.3 solver                                                  *)

let solver_for ?(seed = 3) ?(t = 4) g =
  Solver.preprocess ~prng:(Prng.create seed) ~graph:g ~t ~k:3 ()

let test_solver_meets_error_bound () =
  let prng = Prng.create 7 in
  let g = Gen.erdos_renyi_connected prng ~n:40 ~p:0.3 ~w_max:8 in
  let s = solver_for g in
  let b = zero_sum_b prng 40 in
  let x_exact = Exact.solve_graph g b in
  let xnorm = Exact.laplacian_norm g x_exact in
  List.iter
    (fun eps ->
      let r = Solver.solve s ~b ~eps in
      let err = Exact.laplacian_norm g (Vec.sub r.Solver.solution x_exact) /. xnorm in
      Alcotest.(check bool)
        (Printf.sprintf "eps=%.0e: err=%.2e" eps err)
        true (err <= eps))
    [ 0.5; 1e-2; 1e-4; 1e-8 ]

let test_solver_iterations_grow_with_precision () =
  let prng = Prng.create 8 in
  let g = Gen.erdos_renyi_connected prng ~n:32 ~p:0.3 ~w_max:4 in
  let s = solver_for g in
  let b = zero_sum_b prng 32 in
  let r1 = Solver.solve s ~b ~eps:1e-2 in
  let r2 = Solver.solve s ~b ~eps:1e-10 in
  Alcotest.(check bool) "more precision, more iterations" true
    (r2.Solver.iterations > r1.Solver.iterations)

let test_solver_kappa_certified () =
  let prng = Prng.create 9 in
  let g = Gen.erdos_renyi_connected prng ~n:36 ~p:0.4 ~w_max:4 in
  let s = solver_for ~t:6 g in
  Alcotest.(check bool) "kappa >= 1" true (Solver.kappa s >= 1.0);
  Alcotest.(check bool) "kappa finite" true (Float.is_finite (Solver.kappa s))

(* n = 420 is above the exact range, so kappa comes from power iteration
   with its margin.  On this graph an inner estimate of kappa (2.79
   against the exact 554) makes Chebyshev diverge to a residual of 7.5e34
   without raising, so the test checks both the bound and the solve. *)
let test_solver_above_exact_range () =
  let g =
    Gen.erdos_renyi_connected (Prng.create 41) ~n:420 ~p:(24.0 /. 420.0) ~w_max:8
  in
  let s = Solver.preprocess ~prng:(Prng.create 5) ~graph:g ~t:1 ~k:3 () in
  Alcotest.(check bool)
    (Printf.sprintf "kappa %.1f >= exact 554" (Solver.kappa s))
    true
    (Solver.kappa s >= 554.0);
  let b = zero_sum_b (Prng.create 7) 420 in
  let r = Solver.solve s ~b ~eps:1e-8 in
  Alcotest.(check bool)
    (Printf.sprintf "residual %.3g <= 1e-7" r.Solver.residual)
    true
    (r.Solver.residual <= 1e-7)

let test_solver_rounds_accounting () =
  let prng = Prng.create 10 in
  let g = Gen.erdos_renyi_connected prng ~n:24 ~p:0.4 ~w_max:3 in
  let s = solver_for g in
  Alcotest.(check bool) "preprocessing rounds" true (Solver.preprocessing_rounds s > 0);
  let b = zero_sum_b prng 24 in
  let r = Solver.solve s ~b ~eps:1e-6 in
  Alcotest.(check bool) "solve rounds" true (r.Solver.rounds > 0);
  Alcotest.(check bool) "solve rounds tiny vs preprocessing" true
    (r.Solver.rounds < Solver.preprocessing_rounds s)

let test_solver_rejects_disconnected () =
  let g = Graph.create ~n:4 [ { Graph.u = 0; v = 1; w = 1.0 }; { u = 2; v = 3; w = 1.0 } ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Solver.preprocess: graph must be connected") (fun () ->
      ignore (solver_for g))

let test_solver_rejects_nan_eps () =
  let prng = Prng.create 12 in
  let g = Gen.erdos_renyi_connected prng ~n:16 ~p:0.4 ~w_max:4 in
  let s = solver_for g in
  let b = zero_sum_b prng 16 in
  Alcotest.check_raises "NaN eps"
    (Invalid_argument "Solver.solve: eps must be positive") (fun () ->
      ignore (Solver.solve s ~b ~eps:Float.nan))

let test_solver_on_grid_and_barbell () =
  List.iter
    (fun g ->
      let prng = Prng.create 11 in
      let s = solver_for ~t:6 g in
      let b = zero_sum_b prng (Graph.n g) in
      let r = Solver.solve s ~b ~eps:1e-6 in
      Alcotest.(check bool) "residual small" true (r.Solver.residual < 1e-5))
    [
      Gen.grid (Prng.create 12) ~rows:5 ~cols:6;
      Gen.barbell (Prng.create 13) ~clique:6 ~path:4;
    ]

(* ------------------------------------------------------------------ *)
(* Gremban reduction                                                   *)

let random_sdd prng n =
  (* Random Laplacian-like plus positive diagonal slack. *)
  let m = Dense.create n n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.bernoulli prng 0.5 then begin
        let w = 0.5 +. Prng.float prng in
        Dense.add_entry m u v (-.w);
        Dense.add_entry m v u (-.w);
        Dense.add_entry m u u w;
        Dense.add_entry m v v w
      end
    done;
    Dense.add_entry m u u (0.1 +. Prng.float prng)
  done;
  m

let test_gremban_detects_sdd () =
  let prng = Prng.create 14 in
  let m = random_sdd prng 8 in
  Alcotest.(check bool) "sdd" true (Gremban.is_sdd_nonpositive_offdiag m);
  let bad = Dense.init 2 2 (fun i j -> if i = j then 1.0 else 0.5) in
  Alcotest.(check bool) "positive off-diagonal rejected" false
    (Gremban.is_sdd_nonpositive_offdiag bad)

let test_gremban_solves_sdd () =
  for seed = 1 to 6 do
    let prng = Prng.create (20 + seed) in
    let m = random_sdd prng 10 in
    let x = Vec.init 10 (fun _ -> Prng.gaussian prng) in
    let y = Dense.matvec m x in
    let x' = Gremban.solve m y in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d" seed)
      true
      (Vec.dist2 x x' < 1e-6 *. Float.max 1.0 (Vec.norm2 x))
  done

let test_gremban_virtual_graph_shape () =
  let prng = Prng.create 30 in
  let m = random_sdd prng 6 in
  let seen = ref 0 in
  let laplacian_solve g b =
    seen := Graph.n g;
    Exact.solve_graph g b
  in
  ignore (Gremban.solve_with ~laplacian_solve m (Vec.init 6 float_of_int));
  Alcotest.(check int) "doubled vertices" 12 !seen

let test_gremban_rejects_pure_laplacian () =
  let g = Gen.ring (Prng.create 31) ~n:5 in
  let l = Graph.laplacian_dense g in
  Alcotest.(check bool) "raises on zero slack" true
    (try
       ignore (Gremban.solve l (Vec.zeros 5));
       false
     with Invalid_argument _ -> true)

let test_gremban_with_custom_solver () =
  let prng = Prng.create 32 in
  let m = random_sdd prng 8 in
  let x = Vec.init 8 (fun _ -> Prng.gaussian prng) in
  let y = Dense.matvec m x in
  (* Route the doubled system through the Theorem 1.3 solver. *)
  let laplacian_solve g b =
    let s = Solver.preprocess ~prng:(Prng.create 33) ~graph:g ~t:4 ~k:2 () in
    (Solver.solve s ~b ~eps:1e-10).Solver.solution
  in
  let x' = Gremban.solve_with ~laplacian_solve m y in
  Alcotest.(check bool) "pipeline solve" true (Vec.dist2 x x' < 1e-5)

let prop_gremban_random_sdd =
  QCheck.Test.make ~name:"Gremban solves random SDD systems" ~count:25
    QCheck.small_int (fun seed ->
      let prng = Prng.create (7919 + seed) in
      let n = 3 + Prng.int prng 8 in
      let m = random_sdd prng n in
      let x = Vec.init n (fun _ -> Prng.gaussian prng) in
      let y = Dense.matvec m x in
      let x' = Gremban.solve m y in
      Vec.dist2 x x' < 1e-5 *. Float.max 1.0 (Vec.norm2 x))

let suites =
  [
    ( "laplacian.exact",
      [
        Alcotest.test_case "residual zero" `Quick test_exact_residual_zero;
        Alcotest.test_case "rejects nonzero sum" `Quick test_exact_rejects_nonzero_sum;
        Alcotest.test_case "path known solution" `Quick test_exact_path_known_solution;
        Alcotest.test_case "disconnected ok" `Quick test_exact_disconnected_components;
        Alcotest.test_case "disconnected bad rhs" `Quick test_exact_disconnected_bad_rhs;
        Alcotest.test_case "laplacian norm" `Quick test_laplacian_norm;
      ] );
    ( "laplacian.solver",
      [
        Alcotest.test_case "error bound" `Slow test_solver_meets_error_bound;
        Alcotest.test_case "iterations vs precision" `Quick
          test_solver_iterations_grow_with_precision;
        Alcotest.test_case "kappa certified" `Quick test_solver_kappa_certified;
        Alcotest.test_case "above exact range" `Quick test_solver_above_exact_range;
        Alcotest.test_case "rounds accounting" `Quick test_solver_rounds_accounting;
        Alcotest.test_case "rejects disconnected" `Quick test_solver_rejects_disconnected;
        Alcotest.test_case "rejects NaN eps" `Quick test_solver_rejects_nan_eps;
        Alcotest.test_case "grid and barbell" `Slow test_solver_on_grid_and_barbell;
      ] );
    ( "laplacian.gremban",
      [
        Alcotest.test_case "detects sdd" `Quick test_gremban_detects_sdd;
        Alcotest.test_case "solves sdd" `Quick test_gremban_solves_sdd;
        Alcotest.test_case "virtual graph shape" `Quick test_gremban_virtual_graph_shape;
        Alcotest.test_case "rejects pure laplacian" `Quick
          test_gremban_rejects_pure_laplacian;
        Alcotest.test_case "custom solver" `Slow test_gremban_with_custom_solver;
        QCheck_alcotest.to_alcotest prop_gremban_random_sdd;
      ] );
  ]
