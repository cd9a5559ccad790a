open Lbcc_util
module Vec = Lbcc_linalg.Vec
module Sparse = Lbcc_linalg.Sparse
module Barrier = Lbcc_lp.Barrier
module Jl = Lbcc_lp.Jl
module Leverage = Lbcc_lp.Leverage
module Lewis = Lbcc_lp.Lewis
module Mixed_ball = Lbcc_lp.Mixed_ball
module Problem = Lbcc_lp.Problem

(* ------------------------------------------------------------------ *)
(* Barriers                                                            *)

let numeric_derivative f x =
  let h = 1e-6 in
  (f (x +. h) -. f (x -. h)) /. (2.0 *. h)

let test_barrier_log_lower () =
  let b = Barrier.make ~lo:2.0 ~hi:infinity in
  Alcotest.(check bool) "contains" true (Barrier.contains b 3.0);
  Alcotest.(check bool) "excludes boundary" false (Barrier.contains b 2.0);
  Alcotest.(check (float 1e-9)) "phi(3)" 0.0 (Barrier.value b 3.0);
  Alcotest.(check (float 1e-9)) "phi'(3)" (-1.0) (Barrier.dphi b 3.0);
  Alcotest.(check (float 1e-9)) "phi''(3)" 1.0 (Barrier.ddphi b 3.0)

let test_barrier_log_upper () =
  let b = Barrier.make ~lo:neg_infinity ~hi:5.0 in
  Alcotest.(check (float 1e-9)) "phi'(4)" 1.0 (Barrier.dphi b 4.0);
  Alcotest.(check bool) "blows up near bound" true (Barrier.value b 4.999999 > 10.0)

let test_barrier_trig () =
  let b = Barrier.make ~lo:0.0 ~hi:1.0 in
  Alcotest.(check bool) "contains midpoint" true (Barrier.contains b 0.5);
  (* Symmetric: phi'(1/2) = 0. *)
  Alcotest.(check (float 1e-9)) "centered gradient" 0.0 (Barrier.dphi b 0.5);
  Alcotest.(check bool) "convex" true (Barrier.ddphi b 0.5 > 0.0)

let test_barrier_derivatives_numeric () =
  let check_b b x =
    let d_num = numeric_derivative (Barrier.value b) x in
    Alcotest.(check bool)
      (Printf.sprintf "phi' at %.2f" x)
      true
      (Float.abs (d_num -. Barrier.dphi b x) < 1e-4 *. Float.max 1.0 (Float.abs d_num));
    let dd_num = numeric_derivative (Barrier.dphi b) x in
    Alcotest.(check bool)
      (Printf.sprintf "phi'' at %.2f" x)
      true
      (Float.abs (dd_num -. Barrier.ddphi b x) < 1e-3 *. Float.max 1.0 (Float.abs dd_num))
  in
  let b1 = Barrier.make ~lo:0.0 ~hi:infinity in
  List.iter (check_b b1) [ 0.5; 1.0; 3.0 ];
  let b2 = Barrier.make ~lo:neg_infinity ~hi:2.0 in
  List.iter (check_b b2) [ 0.0; 1.5 ];
  let b3 = Barrier.make ~lo:(-1.0) ~hi:1.0 in
  List.iter (check_b b3) [ -0.5; 0.0; 0.7 ]

let test_barrier_rejects_free_line () =
  Alcotest.check_raises "free line"
    (Invalid_argument "Barrier.make: at least one bound must be finite") (fun () ->
      ignore (Barrier.make ~lo:neg_infinity ~hi:infinity))

let test_barrier_center_interior () =
  List.iter
    (fun (lo, hi) ->
      let b = Barrier.make ~lo ~hi in
      Alcotest.(check bool) "center interior" true (Barrier.contains b (Barrier.center b)))
    [ (0.0, infinity); (neg_infinity, 3.0); (2.0, 9.0) ]

(* ------------------------------------------------------------------ *)
(* JL                                                                  *)

let test_jl_deterministic_from_seed () =
  let r1 = Jl.row ~seed:42 ~k:8 ~j:3 ~m:50 in
  let r2 = Jl.row ~seed:42 ~k:8 ~j:3 ~m:50 in
  Alcotest.(check (array (float 0.0))) "same row from same seed" r1 r2;
  let r3 = Jl.row ~seed:43 ~k:8 ~j:3 ~m:50 in
  Alcotest.(check bool) "different seed differs" true (r1 <> r3)

let test_jl_entries_pm () =
  let k = 16 in
  let r = Jl.row ~seed:7 ~k ~j:0 ~m:100 in
  let expected = 1.0 /. sqrt (float_of_int k) in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "entry is +-1/sqrt k" true
        (Float.abs (Float.abs v -. expected) < 1e-12))
    r

let test_jl_norm_preservation () =
  let prng = Prng.create 3 in
  let m = 400 in
  let eta = 0.3 in
  let k = Jl.rows_for ~m ~eta in
  let within = ref 0 and trials = 30 in
  for seed = 1 to trials do
    let x = Vec.init m (fun _ -> Prng.gaussian prng) in
    let qx = Vec.init k (fun j -> Vec.dot (Jl.row ~seed ~k ~j ~m) x) in
    let ratio = Vec.norm2 qx /. Vec.norm2 x in
    if ratio > 1.0 -. eta && ratio < 1.0 +. eta then incr within
  done;
  Alcotest.(check bool)
    (Printf.sprintf "norm preserved in %d/%d trials" !within trials)
    true
    (!within >= trials - 2)

let test_jl_rows_for_monotone () =
  Alcotest.(check bool) "shrinking eta costs rows" true
    (Jl.rows_for ~m:100 ~eta:0.1 > Jl.rows_for ~m:100 ~eta:0.5)

(* ------------------------------------------------------------------ *)
(* Leverage scores                                                     *)

let random_operator ?(rows = 60) ?(cols = 15) seed =
  let prng = Prng.create seed in
  let triplets = ref [] in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Prng.bernoulli prng 0.3 then triplets := (i, j, Prng.gaussian prng) :: !triplets
    done;
    (* guarantee no zero row *)
    triplets := (i, Prng.int prng cols, 1.0 +. Prng.float prng) :: !triplets
  done;
  let a = Sparse.of_triplets ~rows ~cols !triplets in
  let d = Vec.init rows (fun _ -> 0.5 +. Prng.float prng) in
  (a, d, Leverage.of_row_scaled a d)

let test_leverage_sum_is_rank () =
  let _, _, op = random_operator 1 in
  let sigma = Leverage.exact op in
  Alcotest.(check bool) "sum = rank" true
    (Float.abs (Vec.sum sigma -. 15.0) /. 15.0 < 1e-9)

let test_leverage_in_unit_interval () =
  let _, _, op = random_operator 2 in
  let sigma = Leverage.exact op in
  Array.iter
    (fun s -> Alcotest.(check bool) "sigma in [0,1]" true (s >= -1e-9 && s <= 1.0 +. 1e-9))
    sigma

let test_leverage_approx_close () =
  let _, _, op = random_operator 3 in
  let exact = Leverage.exact op in
  let approx = Leverage.approximate ~prng:(Prng.create 9) ~eta:0.25 op in
  Array.iteri
    (fun i s ->
      if s > 1e-6 then
        Alcotest.(check bool)
          (Printf.sprintf "row %d rel err" i)
          true
          (Float.abs (approx.(i) -. s) /. s < 0.25))
    exact

let test_leverage_approx_charges_rounds () =
  let _, _, op = random_operator 4 in
  let acc = Lbcc_net.Rounds.create ~bandwidth:16 in
  let _ = Leverage.approximate ~accountant:acc ~prng:(Prng.create 10) ~eta:0.5 op in
  Alcotest.(check bool) "rounds charged" true (Lbcc_net.Rounds.rounds acc > 0);
  Alcotest.(check bool) "seed broadcast charged" true
    (List.mem_assoc "leverage-seed" (Lbcc_net.Rounds.breakdown acc))

(* ------------------------------------------------------------------ *)
(* Lewis weights                                                       *)

let leverage_of (a, d) scale = Leverage.exact (Leverage.of_row_scaled a (Vec.mul d scale))

let test_lewis_p2_is_leverage () =
  let a, d, op = random_operator 5 in
  let sigma = Leverage.exact op in
  let leverage s = leverage_of (a, d) s in
  let w, _ = Lewis.fixed_point ~leverage ~p:2.0 ~w0:(Vec.ones 60) ~eta:1e-8 () in
  (* At p=2 the scaling W^{1/2-1/2} = I, so the fixed point is sigma itself. *)
  Array.iteri
    (fun i s ->
      Alcotest.(check bool) "w = sigma at p=2" true
        (Float.abs (w.(i) -. Float.max s 1e-12) < 1e-6))
    sigma

let test_lewis_fixed_point_residual () =
  let a, d, _ = random_operator 6 in
  let leverage s = leverage_of (a, d) s in
  let p = 1.0 -. (1.0 /. log (4.0 *. 60.0)) in
  let w, iters = Lewis.fixed_point ~leverage ~p ~w0:(Vec.ones 60) ~eta:1e-7 () in
  Alcotest.(check bool) "converged" true (iters < 200);
  Alcotest.(check bool) "residual small" true (Lewis.residual ~leverage ~p w < 1e-5)

let test_lewis_sum_close_to_rank () =
  let a, d, _ = random_operator 7 in
  let leverage s = leverage_of (a, d) s in
  let p = 1.2 in
  let w, _ = Lewis.fixed_point ~leverage ~p ~w0:(Vec.ones 60) ~eta:1e-7 () in
  (* sum of Lewis weights = n for all p (they are leverage scores of the
     rescaled matrix at the fixed point). *)
  Alcotest.(check bool) "sum ~ n" true (Float.abs (Vec.sum w -. 15.0) < 0.1)

let test_lewis_apx_stays_in_trust_region () =
  let a, d, _ = random_operator 8 in
  let leverage s = leverage_of (a, d) s in
  let p = 1.5 in
  let w0, _ = Lewis.fixed_point ~leverage ~p ~w0:(Vec.ones 60) ~eta:1e-6 () in
  let w, _ = Lewis.compute_apx_weights ~leverage ~p ~w0 ~eta:0.1 () in
  let r = Float.min 0.5 (p *. p *. (4.0 -. p) /. 16.0) in
  Array.iteri
    (fun i wi ->
      Alcotest.(check bool) "within trust region" true
        (wi >= ((1.0 -. r) *. w0.(i)) -. 1e-9 && wi <= ((1.0 +. r) *. w0.(i)) +. 1e-9))
    w

let test_lewis_initial_weights_homotopy () =
  let a, d, _ = random_operator 9 in
  let leverage_for ~p:_ s = leverage_of (a, d) s in
  let p_target = 1.0 -. (1.0 /. log (4.0 *. 60.0)) in
  let w, steps =
    Lewis.compute_initial_weights ~leverage_for ~m:60 ~n:15 ~p_target ~eta:1e-5 ()
  in
  Alcotest.(check bool) "took homotopy steps" true (steps > 1);
  let leverage s = leverage_of (a, d) s in
  Alcotest.(check bool) "lands near fixed point" true
    (Lewis.residual ~leverage ~p:p_target w < 1e-3)

let test_lewis_regularized () =
  let w = Lewis.regularized (Vec.zeros 10) ~n:5 ~m:10 in
  Array.iter (fun wi -> Alcotest.(check (float 1e-12)) "c0 = n/2m" 0.25 wi) w

(* ------------------------------------------------------------------ *)
(* Mixed-norm ball                                                     *)

let random_ball_instance seed =
  let prng = Prng.create seed in
  let m = 5 + Prng.int prng 60 in
  let a = Vec.init m (fun _ -> Prng.gaussian prng) in
  let l = Vec.init m (fun _ -> 0.05 +. (3.0 *. Prng.float prng)) in
  (a, l)

let test_mixed_ball_matches_brute_force () =
  for seed = 1 to 10 do
    let a, l = random_ball_instance seed in
    let bf = Mixed_ball.brute_force ~a ~l () in
    let mx = Mixed_ball.maximize ~a ~l () in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: %.6f vs %.6f" seed mx.Mixed_ball.value bf.Mixed_ball.value)
      true
      (Float.abs (mx.Mixed_ball.value -. bf.Mixed_ball.value)
      <= 1e-6 *. Float.max 1.0 bf.Mixed_ball.value)
  done

let test_mixed_ball_feasible () =
  for seed = 11 to 20 do
    let a, l = random_ball_instance seed in
    let r = Mixed_ball.maximize ~a ~l () in
    Alcotest.(check bool) "solution in ball" true (Mixed_ball.feasible ~l r.Mixed_ball.x)
  done

let test_mixed_ball_dominates_random_feasible () =
  let prng = Prng.create 21 in
  for seed = 21 to 26 do
    let a, l = random_ball_instance seed in
    let m = Vec.dim a in
    let best = Mixed_ball.maximize ~a ~l () in
    for _ = 1 to 300 do
      let x = Vec.init m (fun _ -> Prng.gaussian prng) in
      let norm =
        Vec.norm2 x +. Vec.max_elt (Vec.map2 (fun xi li -> Float.abs xi /. li) x l)
      in
      let x = Vec.scale (0.999 /. norm) x in
      Alcotest.(check bool) "maximizer dominates" true
        (Vec.dot a x <= best.Mixed_ball.value +. 1e-9)
    done
  done

let test_mixed_ball_zero_objective () =
  let r = Mixed_ball.maximize ~a:(Vec.zeros 5) ~l:(Vec.ones 5) () in
  Alcotest.(check (float 1e-12)) "zero" 0.0 r.Mixed_ball.value

let test_mixed_ball_single_coordinate () =
  (* m = 1: max a x s.t. |x| + |x|/l <= 1 => x = 1/(1 + 1/l). *)
  let r = Mixed_ball.maximize ~a:[| 2.0 |] ~l:[| 4.0 |] () in
  Alcotest.(check (float 1e-6)) "closed form" (2.0 /. (1.0 +. (1.0 /. 4.0)))
    r.Mixed_ball.value

let test_mixed_ball_rejects_bad_l () =
  Alcotest.check_raises "nonpositive l"
    (Invalid_argument "Mixed_ball: l must be positive") (fun () ->
      ignore (Mixed_ball.maximize ~a:[| 1.0 |] ~l:[| 0.0 |] ()))

let test_mixed_ball_charges_rounds () =
  let a, l = random_ball_instance 30 in
  let acc = Lbcc_net.Rounds.create ~bandwidth:16 in
  let r = Mixed_ball.maximize ~accountant:acc ~a ~l () in
  Alcotest.(check bool) "rounds positive" true (r.Mixed_ball.rounds > 0)

let prop_mixed_ball_feasibility =
  QCheck.Test.make ~name:"mixed ball maximizer is always feasible" ~count:60
    QCheck.small_int (fun seed ->
      let a, l = random_ball_instance (1000 + seed) in
      let r = Mixed_ball.maximize ~a ~l () in
      Mixed_ball.feasible ~l r.Mixed_ball.x)

(* ------------------------------------------------------------------ *)
(* Problem                                                             *)

let tiny_problem () =
  (* Two variables, one constraint x1 + x2 = 1, box [0, 1]. *)
  let a = Sparse.of_triplets ~rows:2 ~cols:1 [ (0, 0, 1.0); (1, 0, 1.0) ] in
  Problem.make ~a ~b:[| 1.0 |] ~c:[| 1.0; 2.0 |] ~lo:[| 0.0; 0.0 |] ~hi:[| 1.0; 1.0 |]

let test_problem_dimensions () =
  let p = tiny_problem () in
  Alcotest.(check int) "m" 2 (Problem.m p);
  Alcotest.(check int) "n" 1 (Problem.n p)

let test_problem_interior () =
  let p = tiny_problem () in
  Alcotest.(check bool) "interior" true (Problem.interior p [| 0.5; 0.5 |]);
  Alcotest.(check bool) "boundary" false (Problem.interior p [| 0.0; 1.0 |])

let test_problem_equality_residual () =
  let p = tiny_problem () in
  Alcotest.(check (float 1e-12)) "feasible" 0.0 (Problem.equality_residual p [| 0.3; 0.7 |]);
  Alcotest.(check bool) "infeasible" true (Problem.equality_residual p [| 0.3; 0.3 |] > 0.1)

let test_problem_big_u () =
  let p = tiny_problem () in
  let u = Problem.big_u p ~x0:[| 0.5; 0.5 |] in
  Alcotest.(check (float 1e-12)) "U = max(2, 1, 1, 2)" 2.0 u

let test_dense_normal_solver () =
  let p = tiny_problem () in
  let s = Problem.dense_normal_solver p in
  (* A^T D A = d1 + d2 (1x1). *)
  let x = s.Problem.solve ~d:[| 2.0; 3.0 |] ~rhs:[| 10.0 |] in
  Alcotest.(check (float 1e-9)) "solve" 2.0 x.(0)

let suites =
  [
    ( "lp.barrier",
      [
        Alcotest.test_case "log lower" `Quick test_barrier_log_lower;
        Alcotest.test_case "log upper" `Quick test_barrier_log_upper;
        Alcotest.test_case "trigonometric" `Quick test_barrier_trig;
        Alcotest.test_case "numeric derivatives" `Quick test_barrier_derivatives_numeric;
        Alcotest.test_case "rejects free line" `Quick test_barrier_rejects_free_line;
        Alcotest.test_case "center interior" `Quick test_barrier_center_interior;
      ] );
    ( "lp.jl",
      [
        Alcotest.test_case "deterministic" `Quick test_jl_deterministic_from_seed;
        Alcotest.test_case "entries" `Quick test_jl_entries_pm;
        Alcotest.test_case "norm preservation" `Slow test_jl_norm_preservation;
        Alcotest.test_case "rows monotone" `Quick test_jl_rows_for_monotone;
      ] );
    ( "lp.leverage",
      [
        Alcotest.test_case "sum = rank" `Quick test_leverage_sum_is_rank;
        Alcotest.test_case "in [0,1]" `Quick test_leverage_in_unit_interval;
        Alcotest.test_case "approx close" `Slow test_leverage_approx_close;
        Alcotest.test_case "charges rounds" `Quick test_leverage_approx_charges_rounds;
      ] );
    ( "lp.lewis",
      [
        Alcotest.test_case "p=2 is leverage" `Quick test_lewis_p2_is_leverage;
        Alcotest.test_case "fixed point" `Quick test_lewis_fixed_point_residual;
        Alcotest.test_case "sum ~ rank" `Quick test_lewis_sum_close_to_rank;
        Alcotest.test_case "trust region" `Quick test_lewis_apx_stays_in_trust_region;
        Alcotest.test_case "initial homotopy" `Slow test_lewis_initial_weights_homotopy;
        Alcotest.test_case "regularized" `Quick test_lewis_regularized;
      ] );
    ( "lp.mixed_ball",
      [
        Alcotest.test_case "matches brute force" `Quick test_mixed_ball_matches_brute_force;
        Alcotest.test_case "feasible" `Quick test_mixed_ball_feasible;
        Alcotest.test_case "dominates random" `Slow test_mixed_ball_dominates_random_feasible;
        Alcotest.test_case "zero objective" `Quick test_mixed_ball_zero_objective;
        Alcotest.test_case "single coordinate" `Quick test_mixed_ball_single_coordinate;
        Alcotest.test_case "rejects bad l" `Quick test_mixed_ball_rejects_bad_l;
        Alcotest.test_case "charges rounds" `Quick test_mixed_ball_charges_rounds;
        QCheck_alcotest.to_alcotest prop_mixed_ball_feasibility;
      ] );
    ( "lp.problem",
      [
        Alcotest.test_case "dimensions" `Quick test_problem_dimensions;
        Alcotest.test_case "interior" `Quick test_problem_interior;
        Alcotest.test_case "equality residual" `Quick test_problem_equality_residual;
        Alcotest.test_case "big U" `Quick test_problem_big_u;
        Alcotest.test_case "dense normal solver" `Quick test_dense_normal_solver;
      ] );
  ]
