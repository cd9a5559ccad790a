open Lbcc_util
module Vec = Lbcc_linalg.Vec
module Dense = Lbcc_linalg.Dense
module Sparse = Lbcc_linalg.Sparse
module Eigen = Lbcc_linalg.Eigen
module Cg = Lbcc_linalg.Cg
module Chebyshev = Lbcc_linalg.Chebyshev

let vecs = Alcotest.(array (float 1e-9))

let random_vec prng n = Vec.init n (fun _ -> Prng.gaussian prng)

let of_rows rows =
  Dense.init (Array.length rows) (Array.length rows.(0)) (fun i j -> rows.(i).(j))

(* Frobenius distance between two square matrices of the same size. *)
let dense_dist a b =
  let n = Dense.rows a in
  Dense.frobenius (Dense.init n n (fun i j -> Dense.get a i j -. Dense.get b i j))

let random_spd prng n =
  (* A^T A + I is SPD. *)
  let a = Dense.init n n (fun _ _ -> Prng.gaussian prng) in
  let ata i j =
    let s = ref 0.0 in
    for k = 0 to n - 1 do
      s := !s +. (Dense.get a k i *. Dense.get a k j)
    done;
    !s
  in
  Dense.add (Dense.init n n ata) (Dense.identity n)

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)

let test_vec_ops () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 4.0; 5.0; 6.0 |] in
  Alcotest.check vecs "add" [| 5.0; 7.0; 9.0 |] (Vec.add x y);
  Alcotest.check vecs "sub" [| -3.0; -3.0; -3.0 |] (Vec.sub x y);
  Alcotest.check vecs "scale" [| 2.0; 4.0; 6.0 |] (Vec.scale 2.0 x);
  Alcotest.(check (float 1e-9)) "dot" 32.0 (Vec.dot x y);
  Alcotest.(check (float 1e-9)) "norm2" (sqrt 14.0) (Vec.norm2 x);
  Alcotest.(check (float 1e-9)) "norm_inf" 3.0 (Vec.norm_inf x);
  Alcotest.(check (float 1e-9)) "norm1" 6.0 (Vec.norm1 x)

let test_vec_axpy () =
  let x = [| 1.0; 2.0 |] and y = [| 10.0; 20.0 |] in
  Vec.axpy 3.0 x y;
  Alcotest.check vecs "axpy" [| 13.0; 26.0 |] y

let test_vec_mean_center () =
  let x = Vec.mean_center [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check (float 1e-12)) "zero sum" 0.0 (Vec.sum x)

let test_vec_weighted_norm () =
  Alcotest.(check (float 1e-9)) "weighted" (sqrt 11.0)
    (Vec.weighted_norm [| 2.0; 1.0 |] [| 1.0; 3.0 |])


let test_vec_basis () =
  Alcotest.check vecs "basis" [| 0.0; 1.0; 0.0 |] (Vec.basis 3 1)

let prop_vec_dot_symmetric =
  QCheck.Test.make ~name:"dot is symmetric" ~count:100
    QCheck.(list_of_size (Gen.return 8) (float_range (-10.0) 10.0))
    (fun xs ->
      let x = Array.of_list xs in
      let y = Array.map (fun v -> v +. 1.0) x in
      Float.abs (Vec.dot x y -. Vec.dot y x) < 1e-9)

let prop_vec_triangle =
  QCheck.Test.make ~name:"norm2 triangle inequality" ~count:100
    QCheck.(
      pair
        (list_of_size (Gen.return 6) (float_range (-5.0) 5.0))
        (list_of_size (Gen.return 6) (float_range (-5.0) 5.0)))
    (fun (xs, ys) ->
      let x = Array.of_list xs and y = Array.of_list ys in
      Vec.norm2 (Vec.add x y) <= Vec.norm2 x +. Vec.norm2 y +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Dense                                                               *)

let test_dense_matmul () =
  let a = of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Dense.matmul a b in
  let row i = [| Dense.get c i 0; Dense.get c i 1 |] in
  Alcotest.check vecs "matmul row0" [| 19.0; 22.0 |] (row 0);
  Alcotest.check vecs "matmul row1" [| 43.0; 50.0 |] (row 1)

let test_dense_matvec_t () =
  let a = of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
  let y = [| 1.0; 1.0; 1.0 |] in
  Alcotest.check vecs "A^T y" [| 9.0; 12.0 |] (Dense.matvec_t a y)

let test_dense_solve_roundtrip () =
  let prng = Prng.create 2 in
  for n = 2 to 12 do
    let a = random_spd prng n in
    let x = random_vec prng n in
    let b = Dense.matvec a x in
    let x' = Dense.solve a b in
    Alcotest.(check bool)
      (Printf.sprintf "solve n=%d" n)
      true
      (Vec.dist2 x x' < 1e-6 *. Float.max 1.0 (Vec.norm2 x))
  done

let test_dense_solve_singular () =
  let a = of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Dense.solve: singular matrix")
    (fun () -> ignore (Dense.solve a [| 1.0; 1.0 |]))

let test_dense_factorize_reuse () =
  let prng = Prng.create 6 in
  let a = random_spd prng 7 in
  let f = Dense.factorize a in
  for _ = 1 to 5 do
    let x = random_vec prng 7 in
    let b = Dense.matvec a x in
    Alcotest.(check bool) "factored solve" true
      (Vec.dist2 x (Dense.solve_factored f b) < 1e-6)
  done

let test_dense_symmetrize () =
  let a = of_rows [| [| 1.0; 4.0 |]; [| 2.0; 3.0 |] |] in
  let s = Dense.symmetrize a in
  Alcotest.(check bool) "symmetric" true (Dense.is_symmetric s);
  Alcotest.(check (float 1e-12)) "avg" 3.0 (Dense.get s 0 1)

(* ------------------------------------------------------------------ *)
(* Sparse                                                              *)

let test_sparse_matvec_matches_dense () =
  let prng = Prng.create 7 in
  let r = 15 and c = 9 in
  let triplets = ref [] in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      if Prng.bernoulli prng 0.3 then triplets := (i, j, Prng.gaussian prng) :: !triplets
    done
  done;
  let s = Sparse.of_triplets ~rows:r ~cols:c !triplets in
  let d = Sparse.to_dense s in
  let x = random_vec prng c and y = random_vec prng r in
  Alcotest.(check bool) "matvec" true
    (Vec.dist2 (Sparse.matvec s x) (Dense.matvec d x) < 1e-9);
  Alcotest.(check bool) "matvec_t" true
    (Vec.dist2 (Sparse.matvec_t s y) (Dense.matvec_t d y) < 1e-9)

let test_sparse_duplicates_sum () =
  let s = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.0); (0, 0, 2.0); (1, 1, -1.0) ] in
  Alcotest.(check (float 1e-12)) "summed" 3.0 (Dense.get (Sparse.to_dense s) 0 0);
  Alcotest.(check int) "nnz" 2 (Sparse.nnz s)

let test_sparse_gram () =
  let prng = Prng.create 8 in
  let r = 12 and c = 5 in
  let triplets = ref [] in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      if Prng.bernoulli prng 0.4 then triplets := (i, j, Prng.gaussian prng) :: !triplets
    done
  done;
  let s = Sparse.of_triplets ~rows:r ~cols:c !triplets in
  let d = Vec.init r (fun _ -> 0.1 +. Prng.float prng) in
  let g = Sparse.gram s d in
  (* reference: A^T D A densely *)
  let ad = Sparse.to_dense s in
  let expect =
    Dense.init c c (fun i j ->
        let acc = ref 0.0 in
        for k = 0 to r - 1 do
          acc := !acc +. (Dense.get ad k i *. d.(k) *. Dense.get ad k j)
        done;
        !acc)
  in
  Alcotest.(check (float 1e-8)) "gram" 0.0 (dense_dist g expect)

(* ------------------------------------------------------------------ *)
(* Eigen                                                               *)

(* The exported entry point is the pencil's extreme eigenvalues; against
   the identity they are the extreme eigenvalues of [a] itself. *)
let extremes a = Eigen.relative_condition a (Dense.identity (Dense.rows a))

let test_eigen_diagonal () =
  let lmin, lmax = extremes (Dense.of_diag [| 3.0; 1.0; 2.0 |]) in
  Alcotest.(check (float 1e-9)) "lambda_min" 1.0 lmin;
  Alcotest.(check (float 1e-9)) "lambda_max" 3.0 lmax

let test_eigen_known_2x2 () =
  (* [[2,1],[1,2]] has eigenvalues 1 and 3 *)
  let lmin, lmax = extremes (of_rows [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |]) in
  Alcotest.(check (float 1e-9)) "lambda1" 1.0 lmin;
  Alcotest.(check (float 1e-9)) "lambda2" 3.0 lmax

let test_eigen_reconstruction () =
  (* Q diag(d) Q^T with a Householder reflection Q = I - 2 v v^T / v^T v:
     column j of Q is an eigenvector for d.(j), so the extremes are known. *)
  let prng = Prng.create 9 in
  let v = Vec.init 8 (fun _ -> Prng.gaussian prng) in
  let vv = Vec.dot v v in
  let q =
    Dense.init 8 8 (fun i j ->
        (if i = j then 1.0 else 0.0) -. (2.0 *. v.(i) *. v.(j) /. vv))
  in
  let d = [| 2.5; 0.5; 7.0; 1.5; 3.0; 4.0; 6.5; 1.0 |] in
  let a = Dense.symmetrize (Dense.matmul q (Dense.matmul (Dense.of_diag d) q)) in
  let lmin, lmax = extremes a in
  Alcotest.(check (float 1e-7)) "lambda_min" 0.5 lmin;
  Alcotest.(check (float 1e-7)) "lambda_max" 7.0 lmax

let test_eigen_trace_preserved () =
  (* A 2x2 matrix has only its two extreme eigenvalues; they sum to the
     trace. *)
  let a = random_spd (Prng.create 10) 2 in
  let lmin, lmax = extremes a in
  Alcotest.(check (float 1e-7)) "trace = sum of eigenvalues"
    (Vec.sum (Dense.diag a)) (lmin +. lmax)

let test_eigen_spd_condition_number () =
  let d = Dense.of_diag [| 2.0; 8.0; 4.0 |] in
  let lmin, lmax = Eigen.relative_condition d (Dense.identity 3) in
  Alcotest.(check (float 1e-9)) "kappa = max/min" 4.0 (lmax /. lmin)

let test_eigen_relative_condition_identity () =
  let prng = Prng.create 11 in
  let a = random_spd prng 6 in
  let lmin, lmax = Eigen.relative_condition a a in
  Alcotest.(check (float 1e-6)) "lmin = 1" 1.0 lmin;
  Alcotest.(check (float 1e-6)) "lmax = 1" 1.0 lmax

let test_eigen_relative_condition_scaled () =
  let prng = Prng.create 12 in
  let a = random_spd prng 6 in
  let b = Dense.init 6 6 (fun i j -> 2.0 *. Dense.get a i j) in
  let lmin, lmax = Eigen.relative_condition a b in
  Alcotest.(check (float 1e-6)) "lmin = 1/2" 0.5 lmin;
  Alcotest.(check (float 1e-6)) "lmax = 1/2" 0.5 lmax

(* ------------------------------------------------------------------ *)
(* Cg and Chebyshev                                                    *)

(* The identity preconditioner: plain CG. *)
let copy x dst = Array.blit x 0 dst 0 (Array.length x)

let test_cg_solves_spd () =
  let prng = Prng.create 13 in
  let a = random_spd prng 20 in
  let x = random_vec prng 20 in
  let b = Dense.matvec a x in
  let r =
    Cg.solve_preconditioned ~matvec:(Dense.matvec_into a) ~precond:copy ~b
      ~tol:1e-12 ()
  in
  Alcotest.(check bool) "converged" true r.Cg.converged;
  Alcotest.(check bool) "solution" true (Vec.dist2 x r.Cg.solution < 1e-5)

let test_cg_preconditioned_faster () =
  let prng = Prng.create 14 in
  let n = 30 in
  (* Ill-conditioned diagonal + noise *)
  let d = Vec.init n (fun i -> 1.0 +. (1000.0 *. float_of_int i /. float_of_int n)) in
  let a = Dense.of_diag d in
  let x = random_vec prng n in
  let b = Dense.matvec a x in
  let plain =
    Cg.solve_preconditioned ~matvec:(Dense.matvec_into a) ~precond:copy ~b
      ~tol:1e-10 ()
  in
  let precond z dst = copy (Vec.div z d) dst in
  let pcg =
    Cg.solve_preconditioned ~matvec:(Dense.matvec_into a) ~precond ~b
      ~tol:1e-10 ()
  in
  Alcotest.(check bool) "pcg converged" true pcg.Cg.converged;
  Alcotest.(check bool) "pcg at most as many iterations" true
    (pcg.Cg.iterations <= plain.Cg.iterations)

let test_chebyshev_identity_preconditioner () =
  (* B = A: kappa = 1, converges immediately. *)
  let prng = Prng.create 15 in
  let a = random_spd prng 10 in
  let f = Dense.factorize a in
  let x = random_vec prng 10 in
  let b = Dense.matvec a x in
  let r =
    Chebyshev.solve ~matvec:(Dense.matvec_into a)
      ~solve_b:(Dense.solve_factored_into f) ~kappa:1.0001 ~eps:1e-10 ~b ()
  in
  Alcotest.(check bool) "tiny residual" true (r.Chebyshev.residual_norm < 1e-8)

let test_chebyshev_iterations_bound () =
  Alcotest.(check bool) "monotone in kappa" true
    (Chebyshev.iterations_bound ~kappa:100.0 ~eps:1e-6
    > Chebyshev.iterations_bound ~kappa:4.0 ~eps:1e-6);
  Alcotest.(check bool) "monotone in eps" true
    (Chebyshev.iterations_bound ~kappa:4.0 ~eps:1e-12
    > Chebyshev.iterations_bound ~kappa:4.0 ~eps:1e-2)

let test_chebyshev_scaled_preconditioner () =
  (* B = kappa * A with spectrum [1/kappa, 1/kappa]: still within theory if
     we pass the pencil bounds kappa. *)
  let prng = Prng.create 16 in
  let a = random_spd prng 12 in
  let f = Dense.factorize a in
  let kappa = 5.0 in
  let solve_b r z =
    Dense.solve_factored_into f r z;
    Vec.scale_into (1.0 /. kappa) z z
  in
  let x = random_vec prng 12 in
  let b = Dense.matvec a x in
  let r =
    Chebyshev.solve ~matvec:(Dense.matvec_into a) ~solve_b ~kappa ~eps:1e-10
      ~b ()
  in
  Alcotest.(check bool) "converges through scaled preconditioner" true
    (r.Chebyshev.residual_norm < 1e-6)

let test_chebyshev_adaptive_counts () =
  let prng = Prng.create 17 in
  let a = random_spd prng 12 in
  let f = Dense.factorize a in
  let kappa = 3.0 in
  let solve_b r z =
    Dense.solve_factored_into f r z;
    Vec.scale_into (1.0 /. kappa) z z
  in
  let x = random_vec prng 12 in
  let b = Dense.matvec a x in
  let r =
    Chebyshev.solve_adaptive ~matvec:(Dense.matvec_into a) ~solve_b ~kappa
      ~rtol:1e-8 ~b
  in
  Alcotest.(check bool) "adaptive converged" true (r.Chebyshev.residual_norm <= 1e-8);
  Alcotest.(check bool) "within 4x bound" true
    (r.Chebyshev.iterations <= 4 * Chebyshev.iterations_bound ~kappa ~eps:1e-8)

let suites =
  [
    ( "linalg.vec",
      [
        Alcotest.test_case "ops" `Quick test_vec_ops;
        Alcotest.test_case "axpy" `Quick test_vec_axpy;
        Alcotest.test_case "mean_center" `Quick test_vec_mean_center;
        Alcotest.test_case "weighted norm" `Quick test_vec_weighted_norm;
        Alcotest.test_case "basis" `Quick test_vec_basis;
        QCheck_alcotest.to_alcotest prop_vec_dot_symmetric;
        QCheck_alcotest.to_alcotest prop_vec_triangle;
      ] );
    ( "linalg.dense",
      [
        Alcotest.test_case "matmul" `Quick test_dense_matmul;
        Alcotest.test_case "matvec_t" `Quick test_dense_matvec_t;
        Alcotest.test_case "solve roundtrip" `Quick test_dense_solve_roundtrip;
        Alcotest.test_case "solve singular" `Quick test_dense_solve_singular;
        Alcotest.test_case "factorize reuse" `Quick test_dense_factorize_reuse;
        Alcotest.test_case "symmetrize" `Quick test_dense_symmetrize;
      ] );
    ( "linalg.sparse",
      [
        Alcotest.test_case "matvec vs dense" `Quick test_sparse_matvec_matches_dense;
        Alcotest.test_case "duplicates sum" `Quick test_sparse_duplicates_sum;
        Alcotest.test_case "gram" `Quick test_sparse_gram;
      ] );
    ( "linalg.eigen",
      [
        Alcotest.test_case "diagonal" `Quick test_eigen_diagonal;
        Alcotest.test_case "known 2x2" `Quick test_eigen_known_2x2;
        Alcotest.test_case "eigenpairs" `Quick test_eigen_reconstruction;
        Alcotest.test_case "trace preserved" `Quick test_eigen_trace_preserved;
        Alcotest.test_case "spd condition number" `Quick test_eigen_spd_condition_number;
        Alcotest.test_case "relative condition id" `Quick
          test_eigen_relative_condition_identity;
        Alcotest.test_case "relative condition scaled" `Quick
          test_eigen_relative_condition_scaled;
      ] );
    ( "linalg.iterative",
      [
        Alcotest.test_case "cg solves" `Quick test_cg_solves_spd;
        Alcotest.test_case "pcg no slower" `Quick test_cg_preconditioned_faster;
        Alcotest.test_case "chebyshev kappa=1" `Quick
          test_chebyshev_identity_preconditioner;
        Alcotest.test_case "chebyshev bound monotone" `Quick
          test_chebyshev_iterations_bound;
        Alcotest.test_case "chebyshev scaled preconditioner" `Quick
          test_chebyshev_scaled_preconditioner;
        Alcotest.test_case "chebyshev adaptive" `Quick test_chebyshev_adaptive_counts;
      ] );
  ]
