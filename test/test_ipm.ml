open Lbcc_util
module Vec = Lbcc_linalg.Vec
module Sparse = Lbcc_linalg.Sparse
module Problem = Lbcc_lp.Problem
module Ipm = Lbcc_lp.Ipm
module Lewis = Lbcc_lp.Lewis
module Leverage = Lbcc_lp.Leverage

(* A small transportation-style LP with a known optimum:
   min c^T x  over  { x in [0,1]^m : sum x_i = budget }.
   The optimum fills the cheapest coordinates greedily. *)
let knapsack_problem ~costs ~budget =
  let m = Array.length costs in
  let a = Sparse.of_triplets ~rows:m ~cols:1 (List.init m (fun i -> (i, 0, 1.0))) in
  let p =
    Problem.make ~a ~b:[| budget |] ~c:costs ~lo:(Array.make m 0.0)
      ~hi:(Array.make m 1.0)
  in
  let x0 = Vec.create m (budget /. float_of_int m) in
  (p, x0)

let greedy_optimum ~costs ~budget =
  let order = Array.init (Array.length costs) Fun.id in
  Array.sort (fun i j -> compare costs.(i) costs.(j)) order;
  let remaining = ref budget and value = ref 0.0 in
  Array.iter
    (fun i ->
      let take = Float.min 1.0 !remaining in
      remaining := !remaining -. take;
      value := !value +. (take *. costs.(i)))
    order;
  !value

let solve_knapsack ?(config = Ipm.default_config) ~costs ~budget ~eps () =
  let p, x0 = knapsack_problem ~costs ~budget in
  let solver = Problem.dense_normal_solver p in
  Ipm.lp_solve ~config ~prng:(Prng.create 5) ~problem:p ~solver ~x0 ~eps ()

let test_knapsack_reaches_optimum () =
  let costs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  let budget = 2.5 in
  let opt = greedy_optimum ~costs ~budget in
  let x, _ = solve_knapsack ~costs ~budget ~eps:0.01 () in
  let value = Vec.dot costs x in
  Alcotest.(check bool)
    (Printf.sprintf "value %.4f vs opt %.4f" value opt)
    true
    (value <= opt +. 0.011 && value >= opt -. 1e-6)

let test_knapsack_feasibility_maintained () =
  let costs = [| 2.0; 7.0; 1.0; 9.0; 4.0; 3.0 |] in
  let budget = 3.0 in
  let p, _ = knapsack_problem ~costs ~budget in
  let x, trace = solve_knapsack ~costs ~budget ~eps:0.05 () in
  Alcotest.(check bool) "interior" true (Problem.interior p x);
  Alcotest.(check bool) "equality maintained" true (trace.Ipm.max_eq_residual < 1e-5)

let test_unweighted_matches_lewis_objective () =
  let costs = [| 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 |] in
  let budget = 4.0 in
  let opt = greedy_optimum ~costs ~budget in
  let lw, _ = solve_knapsack ~costs ~budget ~eps:0.02 () in
  let uw, _ =
    solve_knapsack
      ~config:{ Ipm.default_config with weighting = Ipm.Unweighted }
      ~costs ~budget ~eps:0.02 ()
  in
  Alcotest.(check bool) "lewis near opt" true (Vec.dot costs lw <= opt +. 0.05);
  Alcotest.(check bool) "unweighted near opt" true (Vec.dot costs uw <= opt +. 0.05)

let test_iterations_scale_with_c1 () =
  (* alpha ~ 1/sqrt(||w||_1): unweighted runs should need more progress
     steps than Lewis-weighted ones once m >> n. *)
  let m = 40 in
  let prng = Prng.create 6 in
  let costs = Vec.init m (fun _ -> 1.0 +. Prng.float prng) in
  let budget = float_of_int m /. 4.0 in
  let _, tr_lewis = solve_knapsack ~costs ~budget ~eps:0.05 () in
  let _, tr_unw =
    solve_knapsack
      ~config:{ Ipm.default_config with weighting = Ipm.Unweighted }
      ~costs ~budget ~eps:0.05 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "lewis %d < unweighted %d iterations" tr_lewis.Ipm.iterations
       tr_unw.Ipm.iterations)
    true
    (tr_lewis.Ipm.iterations < tr_unw.Ipm.iterations)

(* The weights [Ipm.lp_solve] starts from under the default config:
   regularized Lewis weights at [x0] by the Algorithm 8 homotopy to
   p = 1 - 1/log(4m), at fixed-point accuracy 0.05, with exact leverage
   scores of the barrier-scaled constraint matrix. *)
let initial_weights p x0 =
  let m = Problem.m p and n = Problem.n p in
  let spp = Vec.map sqrt (Problem.phi'' p x0) in
  let leverage_for ~p:_ d =
    Leverage.exact (Leverage.of_row_scaled p.Problem.a (Vec.div d spp))
  in
  let p_target = 1.0 -. (1.0 /. log (4.0 *. float_of_int m)) in
  let w, _ = Lewis.compute_initial_weights ~leverage_for ~m ~n ~p_target ~eta:0.05 in
  Lewis.regularized w ~n ~m

let test_initial_weights_size_bound () =
  let costs = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
  let p, x0 = knapsack_problem ~costs ~budget:3.0 in
  let w = initial_weights p x0 in
  (* Size bound: ||g||_1 <= c1 = 3/2 n (plus regularization slack). *)
  Alcotest.(check bool) "size bound" true (Vec.norm1 w <= 1.5 *. 1.0 +. 1.0);
  Array.iter (fun wi -> Alcotest.(check bool) "positive" true (wi > 0.0)) w

let test_centering_reduces_delta () =
  let costs = [| 2.0; 1.0; 3.0 |] in
  let p, x0 = knapsack_problem ~costs ~budget:1.5 in
  let solver = Problem.dense_normal_solver p in
  let config = Ipm.default_config in
  let prng = Prng.create 8 in
  let w = initial_weights p x0 in
  (* Start slightly off-center and verify repeated centering contracts. *)
  let x_off = Vec.map2 (fun xi hi -> Float.min (xi *. 1.2) (hi *. 0.9)) x0 [| 1.0; 1.0; 1.0 |] in
  let d = Vec.neg (Vec.mul w (Problem.phi' p x0)) in
  let state = ref { Ipm.x = x_off; w; delta = infinity } in
  let deltas = ref [] in
  for _ = 1 to 6 do
    state := Ipm.centering_inexact ~config ~prng ~problem:p ~solver ~t:1.0 ~cost:d !state;
    deltas := !state.Ipm.delta :: !deltas
  done;
  match !deltas with
  | last :: _ ->
      let first = List.nth (List.rev !deltas) 0 in
      Alcotest.(check bool)
        (Printf.sprintf "delta %.4f -> %.4f" first last)
        true (last <= first +. 1e-9)
  | [] -> Alcotest.fail "no centering data"

let test_lp_solve_rejects_bad_inputs () =
  let costs = [| 1.0; 2.0 |] in
  let p, _ = knapsack_problem ~costs ~budget:1.0 in
  let solver = Problem.dense_normal_solver p in
  Alcotest.check_raises "bad eps" (Invalid_argument "Ipm.lp_solve: eps must be positive")
    (fun () ->
      ignore
        (Ipm.lp_solve ~prng:(Prng.create 1) ~problem:p ~solver ~x0:[| 0.5; 0.5 |]
           ~eps:0.0 ()));
  Alcotest.check_raises "exterior x0"
    (Invalid_argument "Ipm.lp_solve: x0 must be strictly interior") (fun () ->
      ignore
        (Ipm.lp_solve ~prng:(Prng.create 1) ~problem:p ~solver ~x0:[| 0.0; 1.0 |]
           ~eps:0.1 ()))

let test_paper_weight_update_runs () =
  (* The printed Algorithm 11 update (mixed-ball projected potential
     step) must keep weights positive and finite. *)
  let costs = [| 2.0; 1.0; 3.0; 4.0 |] in
  let p, x0 = knapsack_problem ~costs ~budget:2.0 in
  let solver = Problem.dense_normal_solver p in
  let config = { Ipm.default_config with weight_update = `Paper } in
  let prng = Prng.create 9 in
  let w = initial_weights p x0 in
  let d = Vec.neg (Vec.mul w (Problem.phi' p x0)) in
  let state = ref { Ipm.x = x0; w; delta = infinity } in
  for _ = 1 to 3 do
    state := Ipm.centering_inexact ~config ~prng ~problem:p ~solver ~t:1.0 ~cost:d !state
  done;
  Array.iter
    (fun wi ->
      Alcotest.(check bool) "weight positive and finite" true
        (wi > 0.0 && Float.is_finite wi))
    !state.Ipm.w

let test_jl_leverage_mode_end_to_end () =
  let costs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  let budget = 2.5 in
  let opt = greedy_optimum ~costs ~budget in
  let config = { Ipm.default_config with leverage_mode = `Jl 0.5 } in
  let x, _ = solve_knapsack ~config ~costs ~budget ~eps:0.05 () in
  Alcotest.(check bool) "JL-backed solve near optimum" true
    (Vec.dot costs x <= opt +. 0.1)

let suites =
  [
    ( "ipm",
      [
        Alcotest.test_case "knapsack optimum" `Slow test_knapsack_reaches_optimum;
        Alcotest.test_case "feasibility maintained" `Slow
          test_knapsack_feasibility_maintained;
        Alcotest.test_case "unweighted matches" `Slow
          test_unweighted_matches_lewis_objective;
        Alcotest.test_case "iterations scale with c1" `Slow test_iterations_scale_with_c1;
        Alcotest.test_case "initial weights size bound" `Quick
          test_initial_weights_size_bound;
        Alcotest.test_case "centering contracts" `Quick test_centering_reduces_delta;
        Alcotest.test_case "rejects bad inputs" `Quick test_lp_solve_rejects_bad_inputs;
        Alcotest.test_case "paper weight update" `Slow test_paper_weight_update_runs;
        Alcotest.test_case "JL leverage mode" `Slow test_jl_leverage_mode_end_to_end;
      ] );
  ]
