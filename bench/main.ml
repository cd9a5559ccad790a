(* Experiment harness: regenerates every quantitative claim tracked in
   EXPERIMENTS.md (the paper has no measured tables or figures — it is a
   theory paper — so the "tables" are the theorem-level claims E1..E16 of
   DESIGN.md).  Run everything:

     dune exec bench/main.exe

   or a subset, optionally emitting machine-readable reports (one
   BENCH_<EXP>.json per experiment, schema documented in EXPERIMENTS.md):

     dune exec bench/main.exe -- E1 E5 E11 --json --out _reports

   This harness measures wall-clock time by design (PERF experiments and
   per-experiment progress lines); the waiver below acknowledges that.
   lbcc-lint: allow-file det-wall-clock
*)

open Lbcc_util
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Paths = Lbcc_graph.Paths
module Vec = Lbcc_linalg.Vec
module Dense = Lbcc_linalg.Dense
module Chebyshev = Lbcc_linalg.Chebyshev
module Spanner = Lbcc_spanner.Spanner
module Sparsify = Lbcc_sparsifier.Sparsify
module Apriori = Lbcc_sparsifier.Apriori
module Certify = Lbcc_laplacian.Certify
module Exact = Lbcc_laplacian.Exact
module Solver = Lbcc_laplacian.Solver
module Leverage = Lbcc_lp.Leverage
module Lewis = Lbcc_lp.Lewis
module Mixed_ball = Lbcc_lp.Mixed_ball
module Problem = Lbcc_lp.Problem
module Ipm = Lbcc_lp.Ipm
module Network = Lbcc_flow.Network
module Mcmf_lp = Lbcc_flow.Mcmf_lp
module Model = Lbcc_net.Model
module Engine = Lbcc_net.Engine
module Rounds = Lbcc_net.Rounds
module Fault = Lbcc_net.Fault
module Byzantine = Lbcc_net.Byzantine
module Bfs = Lbcc_dist.Bfs
module Report = Lbcc_obs.Report
module Json = Lbcc_obs.Json
module Metrics = Lbcc_obs.Metrics
module Cache = Lbcc_service.Cache
module Prepared = Lbcc_service.Prepared
module Ctx = Lbcc_service.Ctx

let section id title = Printf.printf "\n=== %s: %s ===\n" id title

let note fmt = Printf.printf fmt

let cl ?direction name measured bound =
  Report.claim ?direction ~name ~measured ~bound ()

let report ?(phases = []) ?(extra = []) ~experiment ~title claims =
  { Report.experiment; title; claims; phases; extra }

let phases_of acc =
  List.map2
    (fun (label, rounds) (_, bits) -> { Report.label; rounds; bits })
    (Rounds.breakdown acc) (Rounds.bits_breakdown acc)

let log2f x = log x /. log 2.0

(* ------------------------------------------------------------------ *)
(* E1: spanner stretch / size / out-degree (Lemma 3.1)                 *)

let e1 () =
  section "E1" "spanner stretch & size vs Lemma 3.1 bounds";
  Printf.printf "%-12s %4s %2s | %6s %6s %10s | %7s %5s | %7s %6s\n" "family" "n"
    "k" "m" "|F+|" "kn^(1+1/k)" "stretch" "2k-1" "maxdeg+" "bound";
  let families =
    [
      ( "ER(0.3)",
        fun seed -> Gen.erdos_renyi_connected (Prng.create seed) ~n:64 ~p:0.3 ~w_max:8 );
      ("grid8x8", fun seed -> Gen.grid (Prng.create seed) ~rows:8 ~cols:8 ~w_max:8);
      ( "geometric",
        fun seed -> Gen.random_geometric (Prng.create seed) ~n:64 ~radius:0.3 ~w_max:8 );
      ("complete", fun seed -> Gen.complete (Prng.create seed) ~n:64 ~w_max:8);
    ]
  in
  let stretch_ratio = ref 0.0 and size_ratio = ref 0.0 and deg_ratio = ref 0.0 in
  List.iter
    (fun (name, make) ->
      List.iter
        (fun k ->
          let g = make 1 in
          let n = Graph.n g in
          let p = Array.make (Graph.m g) 1.0 in
          let r = Spanner.run ~prng:(Prng.create 7) ~graph:g ~p ~k () in
          let stretch = Spanner.stretch g r in
          let nf = float_of_int n in
          let size_bound =
            float_of_int k *. (nf ** (1.0 +. (1.0 /. float_of_int k)))
          in
          let deg_bound = float_of_int k *. (nf ** (1.0 /. float_of_int k)) in
          let maxdeg =
            Array.fold_left Stdlib.max 0
              (Spanner.out_degrees ~n r.Spanner.orientation)
          in
          stretch_ratio :=
            Float.max !stretch_ratio (stretch /. float_of_int ((2 * k) - 1));
          size_ratio :=
            Float.max !size_ratio
              (float_of_int (List.length r.Spanner.fplus) /. size_bound);
          deg_ratio := Float.max !deg_ratio (float_of_int maxdeg /. deg_bound);
          Printf.printf "%-12s %4d %2d | %6d %6d %10.0f | %7.2f %5d | %7d %6.1f\n"
            name n k (Graph.m g)
            (List.length r.Spanner.fplus)
            size_bound stretch
            ((2 * k) - 1)
            maxdeg deg_bound)
        [ 2; 3; 4 ])
    families;
  note "claim: stretch <= 2k-1 always; |F+| = O(k n^{1+1/k}); out-degree O(k n^{1/k}).\n";
  report ~experiment:"E1" ~title:"spanner stretch & size vs Lemma 3.1 bounds"
    [
      cl "max stretch / (2k-1)" !stretch_ratio 1.0;
      cl "max |F+| / (k n^{1+1/k})" !size_ratio 1.0;
      cl "max out-degree / (k n^{1/k})" !deg_ratio 4.0;
    ]

(* ------------------------------------------------------------------ *)
(* E2: spanner round complexity (Lemma 3.2)                            *)

let e2 () =
  section "E2" "spanner rounds vs Lemma 3.2 formula";
  Printf.printf "%5s %6s %2s | %7s %12s %7s\n" "n" "m" "k" "rounds" "kn^(1/k)logn"
    "ratio";
  let k = 3 in
  let max_ratio = ref 0.0 in
  let data =
    List.map
      (fun n ->
        let g = Gen.erdos_renyi_connected (Prng.create n) ~n ~p:0.3 ~w_max:8 in
        let p = Array.make (Graph.m g) 1.0 in
        let r = Spanner.run ~prng:(Prng.create 13) ~graph:g ~p ~k () in
        let nf = float_of_int n in
        let formula = float_of_int k *. (nf ** (1.0 /. float_of_int k)) *. log nf in
        max_ratio := Float.max !max_ratio (float_of_int r.Spanner.rounds /. formula);
        Printf.printf "%5d %6d %2d | %7d %12.1f %7.2f\n" n (Graph.m g) k
          r.Spanner.rounds formula
          (float_of_int r.Spanner.rounds /. formula);
        (nf, float_of_int r.Spanner.rounds))
      [ 32; 64; 128; 256 ]
  in
  let expo =
    Stats.scaling_exponent
      (Array.of_list (List.map fst data))
      (Array.of_list (List.map snd data))
  in
  note "measured rounds ~ n^%.2f (claimed n^{1/k} * polylog = n^%.2f * polylog)\n" expo
    (1.0 /. float_of_int k);
  report ~experiment:"E2" ~title:"spanner rounds vs Lemma 3.2 formula"
    [
      cl "max rounds / (k n^{1/k} ln n)" !max_ratio 4.0;
      cl "rounds scaling exponent (n^{1/3} + polylog at small n)" expo 0.85;
    ]

(* ------------------------------------------------------------------ *)
(* E3: sparsifier quality / size / rounds (Theorem 1.2)                *)

let e3 () =
  section "E3" "spectral sparsifier quality and rounds (Theorem 1.2)";
  Printf.printf "-- quality vs bundle size t (ER n=48 p=0.6, k=3) --\n";
  Printf.printf "%3s | %6s %9s %8s\n" "t" "m_H" "eps_cert" "rounds";
  let g48 = Gen.erdos_renyi_connected (Prng.create 3) ~n:48 ~p:0.6 ~w_max:4 in
  let eps_t8 = ref infinity and rounds_t8 = ref 0 in
  List.iter
    (fun t ->
      let r = Sparsify.run ~prng:(Prng.create 17) ~graph:g48 ~epsilon:0.5 ~t ~k:3 () in
      let c = Certify.bound (Exact.factor g48) (Exact.factor r.Sparsify.sparsifier) in
      if t = 8 then begin
        eps_t8 := c.Certify.epsilon_achieved;
        rounds_t8 := r.Sparsify.rounds
      end;
      Printf.printf "%3d | %6d %9.3f %8d\n" t
        (Graph.m r.Sparsify.sparsifier)
        c.Certify.epsilon_achieved r.Sparsify.rounds)
    [ 1; 2; 4; 8; 12 ];
  Printf.printf "-- rounds vs n (complete graphs, t=4, k=4) --\n";
  Printf.printf "%4s %6s | %6s %9s %8s %9s\n" "n" "m" "m_H" "eps_cert" "rounds"
    "log^5(n)";
  let data =
    List.map
      (fun n ->
        let g = Gen.complete (Prng.create n) ~n ~w_max:4 in
        let r = Sparsify.run ~prng:(Prng.create 19) ~graph:g ~epsilon:0.5 ~t:4 ~k:4 () in
        let c = Certify.bound (Exact.factor g) (Exact.factor r.Sparsify.sparsifier) in
        let lg = log (float_of_int n) /. log 2.0 in
        Printf.printf "%4d %6d | %6d %9.3f %8d %9.0f\n" n (Graph.m g)
          (Graph.m r.Sparsify.sparsifier)
          c.Certify.epsilon_achieved r.Sparsify.rounds
          (lg ** 5.0);
        (float_of_int n, float_of_int r.Sparsify.rounds))
      [ 64; 128; 256 ]
  in
  let expo =
    Stats.scaling_exponent
      (Array.of_list (List.map fst data))
      (Array.of_list (List.map snd data))
  in
  note "rounds ~ n^%.2f: the paper claims polylog(n) (exponent -> 0); the residual\n" expo;
  note "exponent is the spanner's n^{1/k} term at these small n.\n";
  report ~experiment:"E3" ~title:"spectral sparsifier quality and rounds (Theorem 1.2)"
    [
      cl "eps_cert at t=8 (epsilon target 0.5)" !eps_t8 0.5;
      cl "rounds at t=8 / log2^5(48)" (float_of_int !rounds_t8 /. (log2f 48.0 ** 5.0)) 2.0;
    ]

(* ------------------------------------------------------------------ *)
(* E4: ad-hoc vs a-priori sampling (Lemma 3.3)                         *)

let e4 () =
  section "E4" "ad-hoc (Alg 5) vs a-priori (Alg 4) sampling distributions";
  let g = Gen.erdos_renyi_connected (Prng.create 4) ~n:36 ~p:0.5 ~w_max:1 in
  let runs = 16 in
  let adhoc =
    Array.init runs (fun s ->
        float_of_int
          (Graph.m
             (Sparsify.run ~prng:(Prng.create (300 + s)) ~graph:g ~epsilon:0.5 ~t:2
                ~k:3 ())
               .Sparsify.sparsifier))
  in
  let apriori =
    Array.init runs (fun s ->
        float_of_int
          (Graph.m
             (Apriori.run ~prng:(Prng.create (700 + s)) ~graph:g ~epsilon:0.5 ~t:2
                ~k:3 ())
               .Apriori.sparsifier))
  in
  let sa = Stats.summarize adhoc and sb = Stats.summarize apriori in
  Printf.printf "sparsifier size over %d seeds (input m=%d):\n" runs (Graph.m g);
  Printf.printf "  ad-hoc   : %s\n" (Format.asprintf "%a" Stats.pp_summary sa);
  Printf.printf "  a-priori : %s\n" (Format.asprintf "%a" Stats.pp_summary sb);
  note "claim (Lemma 3.3): identical output distributions; means within noise.\n";
  let se =
    sqrt (((sa.Stats.stddev ** 2.0) +. (sb.Stats.stddev ** 2.0)) /. float_of_int runs)
  in
  report ~experiment:"E4" ~title:"ad-hoc vs a-priori sampling distributions (Lemma 3.3)"
    [
      cl "|mean ad-hoc - mean a-priori| (vs 3 combined stderr)"
        (Float.abs (sa.Stats.mean -. sb.Stats.mean))
        (3.0 *. se);
    ]

(* ------------------------------------------------------------------ *)
(* E5: Chebyshev iteration count (Theorem 2.3)                         *)

let e5 () =
  section "E5" "preconditioned Chebyshev iterations vs sqrt(kappa) log(1/eps)";
  Printf.printf "%7s %8s | %9s %7s %7s\n" "kappa" "eps" "measured" "bound" "ratio";
  let n = 64 in
  let prng = Prng.create 5 in
  let max_ratio = ref 0.0 in
  List.iter
    (fun kappa ->
      let d =
        Vec.init n (fun i ->
            1.0 +. ((kappa -. 1.0) *. float_of_int i /. float_of_int (n - 1)))
      in
      let a = Dense.of_diag d in
      let solve_b r z = Vec.scale_into (1.0 /. kappa) r z in
      List.iter
        (fun eps ->
          let x = Vec.init n (fun _ -> Prng.gaussian prng) in
          let b = Dense.matvec a x in
          let r =
            Chebyshev.solve_adaptive ~matvec:(Dense.matvec_into a) ~solve_b
              ~kappa ~rtol:eps ~b
          in
          let bound = Chebyshev.iterations_bound ~kappa ~eps in
          let ratio = float_of_int r.Chebyshev.iterations /. float_of_int bound in
          max_ratio := Float.max !max_ratio ratio;
          Printf.printf "%7.0f %8.0e | %9d %7d %7.2f\n" kappa eps
            r.Chebyshev.iterations bound ratio)
        [ 1e-2; 1e-6; 1e-10 ])
    [ 2.0; 10.0; 100.0; 1000.0 ];
  note "claim: measured <= bound (ratio <= 1) with the sqrt(kappa) shape.\n";
  report ~experiment:"E5"
    ~title:"preconditioned Chebyshev iterations vs sqrt(kappa) log(1/eps)"
    [ cl "max iterations / theoretical bound" !max_ratio 1.0 ]

(* ------------------------------------------------------------------ *)
(* E6: Laplacian solver (Theorem 1.3)                                  *)

let e6 () =
  section "E6" "BCC Laplacian solver rounds and accuracy (Theorem 1.3)";
  Printf.printf "%4s | %9s | %8s %6s %9s | %9s\n" "n" "preproc" "eps" "iters"
    "solve rds" "residual";
  let max_residual_ratio = ref 0.0 and max_preproc_ratio = ref 0.0 in
  List.iter
    (fun n ->
      (* density shrinks with n to keep the sweep fast *)
      let p = Float.min 0.3 (96.0 /. float_of_int n) in
      let g = Gen.erdos_renyi_connected (Prng.create n) ~n ~p ~w_max:8 in
      let s = Solver.preprocess ~prng:(Prng.create 23) ~graph:g ~t:8 ~k:3 () in
      let prng = Prng.create 29 in
      let b = Vec.mean_center (Vec.init n (fun _ -> Prng.gaussian prng)) in
      max_preproc_ratio :=
        Float.max !max_preproc_ratio
          (float_of_int (Solver.preprocessing_rounds s)
          /. (log2f (float_of_int n) ** 5.0));
      List.iter
        (fun eps ->
          let r = Solver.solve s ~b ~eps in
          max_residual_ratio := Float.max !max_residual_ratio (r.Solver.residual /. eps);
          Printf.printf "%4d | %9d | %8.0e %6d %9d | %9.2e\n" n
            (Solver.preprocessing_rounds s)
            eps r.Solver.iterations r.Solver.rounds r.Solver.residual)
        [ 1e-2; 1e-8 ])
    [ 32; 64; 128; 256; 512 ];
  note "claim: preprocessing polylog(n) rounds; each solve O(log(1/eps) log(nU/eps)).\n";
  report ~experiment:"E6" ~title:"BCC Laplacian solver rounds and accuracy (Theorem 1.3)"
    [
      cl "max residual / eps" !max_residual_ratio 1.0;
      cl "max preprocessing rounds / log2^5(n)" !max_preproc_ratio 2.0;
    ]

(* ------------------------------------------------------------------ *)
(* E7: leverage scores via seeded JL (Lemma 4.5)                       *)

let e7 () =
  section "E7" "approximate leverage scores (Lemma 4.5)";
  let net =
    Network.random (Prng.create 7) ~n:48 ~density:0.2 ~max_capacity:8 ~max_cost:8
  in
  let inst = Mcmf_lp.build ~prng:(Prng.create 31) net in
  let a = inst.Mcmf_lp.problem.Problem.a in
  let m = inst.Mcmf_lp.m_lp in
  let op = Leverage.of_row_scaled a (Vec.ones m) in
  let exact = Leverage.exact op in
  Printf.printf "constraint matrix: %d x %d; sum sigma = %.3f (rank %d)\n" m
    inst.Mcmf_lp.n_lp (Vec.sum exact) inst.Mcmf_lp.n_lp;
  Printf.printf "%5s | %6s %12s\n" "eta" "probes" "max rel err";
  let max_err_ratio = ref 0.0 in
  List.iter
    (fun eta ->
      let k_jl = Lbcc_lp.Jl.rows_for ~m ~eta:(eta /. 4.0) in
      let approx = Leverage.approximate ~prng:(Prng.create 37) ~eta op in
      let err = ref 0.0 in
      Array.iteri
        (fun i s ->
          if s > 1e-9 then err := Float.max !err (Float.abs (approx.(i) -. s) /. s))
        exact;
      max_err_ratio := Float.max !max_err_ratio (!err /. eta);
      Printf.printf "%5.2f | %6d %12.4f\n" eta (Stdlib.min k_jl m) !err)
    [ 2.0; 1.0; 0.5; 0.25 ];
  note "claim: (1±eta) multiplicative accuracy from O(log(m)/eta^2) seeded probes\n";
  note "(probe count capped at m, where basis probes are exact).\n";
  report ~experiment:"E7" ~title:"approximate leverage scores (Lemma 4.5)"
    [ cl "max relative error / eta" !max_err_ratio 1.0 ]

(* ------------------------------------------------------------------ *)
(* E8: Lewis weight computation (Lemma 4.6)                            *)

let e8 () =
  section "E8" "Lewis weight fixed point (Lemma 4.6)";
  let net =
    Network.random (Prng.create 8) ~n:20 ~density:0.2 ~max_capacity:4 ~max_cost:4
  in
  let inst = Mcmf_lp.build ~prng:(Prng.create 41) net in
  let a = inst.Mcmf_lp.problem.Problem.a in
  let m = inst.Mcmf_lp.m_lp and n = inst.Mcmf_lp.n_lp in
  let leverage d = Leverage.exact (Leverage.of_row_scaled a d) in
  Printf.printf "matrix %d x %d\n" m n;
  Printf.printf "%6s %8s | %6s %10s %9s\n" "p" "eta" "iters" "residual" "sum w";
  let max_res_ratio = ref 0.0 and max_sum_gap = ref 0.0 in
  List.iter
    (fun p ->
      List.iter
        (fun eta ->
          let w, iters = Lewis.fixed_point ~leverage ~p ~w0:(Vec.ones m) ~eta in
          max_res_ratio :=
            Float.max !max_res_ratio (Lewis.residual ~leverage ~p w /. eta);
          if eta <= 1e-6 then
            max_sum_gap :=
              Float.max !max_sum_gap (Float.abs (Vec.sum w -. float_of_int n));
          Printf.printf "%6.3f %8.0e | %6d %10.2e %9.3f\n" p eta iters
            (Lewis.residual ~leverage ~p w)
            (Vec.sum w))
        [ 1e-2; 1e-6 ])
    [ 2.0; 1.5; 1.0 -. (1.0 /. log (4.0 *. float_of_int m)) ];
  let leverage_for ~p:_ d = leverage d in
  let p_target = 1.0 -. (1.0 /. log (4.0 *. float_of_int m)) in
  let _, steps =
    Lewis.compute_initial_weights ~leverage_for ~m ~n ~p_target ~eta:1e-4
  in
  note "ComputeInitialWeights homotopy: %d steps (paper: O(sqrt n * polylog), sqrt n = %.1f)\n"
    steps
    (sqrt (float_of_int n));
  note "claim: geometric convergence; sum of Lewis weights = rank for every p.\n";
  report ~experiment:"E8" ~title:"Lewis weight fixed point (Lemma 4.6)"
    [
      cl "max fixed-point residual / eta" !max_res_ratio 1.0;
      cl "max |sum w - rank| at eta=1e-6" !max_sum_gap 0.01;
      cl "homotopy steps / (sqrt(n) log2 m)"
        (float_of_int steps /. (sqrt (float_of_int n) *. log2f (float_of_int m)))
        2.0;
    ]

(* ------------------------------------------------------------------ *)
(* E9: mixed-norm ball projection (Lemma 4.10)                         *)

let e9 () =
  section "E9" "projection on the mixed norm ball (Lemma 4.10)";
  Printf.printf "%6s | %10s %10s %6s | %6s %7s\n" "m" "binary" "brute" "agree"
    "evals" "rounds";
  let max_gap = ref 0.0 in
  let evals = Hashtbl.create 4 in
  List.iter
    (fun m ->
      let prng = Prng.create (m + 9) in
      let a = Vec.init m (fun _ -> Prng.gaussian prng) in
      let l = Vec.init m (fun _ -> 0.1 +. (2.0 *. Prng.float prng)) in
      let acc = Rounds.create ~bandwidth:(Model.bandwidth ~n:64) in
      let fast = Mixed_ball.maximize ~accountant:acc ~a ~l () in
      let brute = Mixed_ball.brute_force ~a ~l () in
      let gap =
        Float.abs (fast.Mixed_ball.value -. brute.Mixed_ball.value)
        /. Float.max 1.0 brute.Mixed_ball.value
      in
      max_gap := Float.max !max_gap gap;
      Hashtbl.replace evals m fast.Mixed_ball.evaluations;
      Printf.printf "%6d | %10.4f %10.4f %6b | %6d %7d\n" m fast.Mixed_ball.value
        brute.Mixed_ball.value (gap <= 1e-6) fast.Mixed_ball.evaluations
        fast.Mixed_ball.rounds)
    [ 10; 100; 1000; 10000 ];
  note "claim: the O(log)-query search equals the full scan; rounds polylog in m.\n";
  let growth =
    float_of_int (Hashtbl.find evals 10000) /. float_of_int (Hashtbl.find evals 10)
  in
  report ~experiment:"E9" ~title:"projection on the mixed norm ball (Lemma 4.10)"
    [
      cl "max relative gap binary vs brute force" !max_gap 1e-6;
      cl "evals growth m=10 -> m=10^4 / log growth" (growth /. 4.0) 2.0;
    ]

(* ------------------------------------------------------------------ *)
(* E10: LP solver iterations ~ sqrt(rank) (Theorem 1.4)                *)

let flow_traces ~weighting nv seed =
  let net =
    Network.random (Prng.create seed) ~n:nv ~density:0.3 ~max_capacity:4 ~max_cost:4
  in
  let inst = Mcmf_lp.build ~prng:(Prng.create (seed + 1)) net in
  let solver = Mcmf_lp.laplacian_normal_solver inst in
  let config = { Ipm.default_config with weighting } in
  let mm =
    float_of_int (Stdlib.max (Network.max_capacity net) (Network.max_cost net))
  in
  let _, trace =
    Ipm.lp_solve ~config
      ~prng:(Prng.create (seed + 2))
      ~problem:inst.Mcmf_lp.problem ~solver ~x0:inst.Mcmf_lp.x0
      ~eps:(1.0 /. (12.0 *. mm))
      ()
  in
  (inst, trace)

let e10 () =
  section "E10" "IPM iterations: Lewis-weighted sqrt(n) vs unweighted sqrt(m)";
  Printf.printf "%4s %4s %4s | %11s %10s | %11s\n" "|V|" "n" "m" "lewis iters"
    "unweighted" "ratio uw/lw";
  let min_ratio = ref infinity in
  let data =
    List.map
      (fun nv ->
        let inst, tl = flow_traces ~weighting:Ipm.Lewis nv (100 + nv) in
        let _, tu = flow_traces ~weighting:Ipm.Unweighted nv (100 + nv) in
        let ratio = float_of_int tu.Ipm.iterations /. float_of_int tl.Ipm.iterations in
        min_ratio := Float.min !min_ratio ratio;
        Printf.printf "%4d %4d %4d | %11d %10d | %11.2f\n" nv inst.Mcmf_lp.n_lp
          inst.Mcmf_lp.m_lp tl.Ipm.iterations tu.Ipm.iterations ratio;
        (float_of_int inst.Mcmf_lp.n_lp, float_of_int tl.Ipm.iterations))
      [ 6; 8; 12; 16 ]
  in
  let expo =
    Stats.scaling_exponent
      (Array.of_list (List.map fst data))
      (Array.of_list (List.map snd data))
  in
  note "lewis iterations ~ n^%.2f (claim: n^0.5 * log factors);\n" expo;
  note "unweighted pays the ||w||_1 = m vs 2n gap in the step size.\n";
  report ~experiment:"E10"
    ~title:"IPM iterations: Lewis-weighted sqrt(n) vs unweighted sqrt(m)"
    [
      cl "lewis iterations scaling exponent (sqrt + polylog at small n)" expo 0.9;
      cl ~direction:Report.Ge "min unweighted/lewis iteration ratio" !min_ratio 1.0;
    ]

(* ------------------------------------------------------------------ *)
(* E11: exact min-cost max-flow (Theorem 1.1)                          *)

let e11 () =
  section "E11" "exact min-cost max-flow in O~(sqrt n) BCC rounds (Theorem 1.1)";
  Printf.printf "%4s %4s | %5s %5s %6s | %7s %10s %6s\n" "|V|" "|E|" "value" "cost"
    "exact" "iters" "rounds" "sec";
  let exact_count = ref 0 and total = ref 0 in
  let data = ref [] in
  List.iter
    (fun nv ->
      List.iter
        (fun seed ->
          incr total;
          let net =
            Network.random
              (Prng.create (nv * seed))
              ~n:nv ~density:0.3 ~max_capacity:6 ~max_cost:5
          in
          let t0 = Unix.gettimeofday () in
          let r = Mcmf_lp.solve ~prng:(Prng.create (seed + 1000)) net in
          let dt = Unix.gettimeofday () -. t0 in
          if r.Mcmf_lp.matches_baseline then incr exact_count;
          Printf.printf "%4d %4d | %5d %5d %6b | %7d %10d %6.1f\n" nv
            (Network.m net) r.Mcmf_lp.value r.Mcmf_lp.cost r.Mcmf_lp.matches_baseline
            r.Mcmf_lp.iterations r.Mcmf_lp.rounds dt;
          data := (float_of_int nv, float_of_int r.Mcmf_lp.iterations) :: !data)
        [ 1; 2 ])
    [ 6; 8; 10; 12 ];
  Printf.printf "exactness: %d/%d instances match the combinatorial optimum\n"
    !exact_count !total;
  let expo =
    Stats.scaling_exponent
      (Array.of_list (List.map fst !data))
      (Array.of_list (List.map snd !data))
  in
  note "iterations ~ |V|^%.2f (claim sqrt: 0.5 + log factors); rounds follow\n" expo;
  note "iterations x polylog (absolute counts are constants-dominated, EXPERIMENTS.md).\n";
  (* Instrumented pipeline: one shared accountant through sparsifier,
     Laplacian solver and min-cost flow, so the report carries the
     hierarchical per-phase round/bit breakdown of all three theorems. *)
  let acc = Rounds.create ~bandwidth:(Model.bandwidth ~n:32) in
  let g = Gen.erdos_renyi_connected (Prng.create 11) ~n:32 ~p:0.3 ~w_max:6 in
  let _ =
    Sparsify.run ~accountant:acc ~prng:(Prng.create 1) ~graph:g ~epsilon:0.5 ~t:4
      ~k:3 ()
  in
  let s = Solver.preprocess ~accountant:acc ~prng:(Prng.create 2) ~graph:g ~t:4 ~k:3 () in
  let prng = Prng.create 3 in
  let b = Vec.mean_center (Vec.init 32 (fun _ -> Prng.gaussian prng)) in
  let _ = Solver.solve ~accountant:acc s ~b ~eps:1e-8 in
  let net =
    Network.random (Prng.create 5) ~n:6 ~density:0.3 ~max_capacity:4 ~max_cost:4
  in
  let _ = Mcmf_lp.solve ~accountant:acc ~prng:(Prng.create 7) net in
  Printf.printf "instrumented pipeline (n=32 graph + |V|=6 flow), phase totals:\n";
  List.iter
    (fun (node : Rounds.tree) ->
      Printf.printf "  %-12s %10d rounds %14d bits\n" node.Rounds.label
        node.Rounds.t_rounds node.Rounds.t_bits)
    (Rounds.tree acc);
  report ~experiment:"E11"
    ~title:"exact min-cost max-flow in O~(sqrt n) BCC rounds (Theorem 1.1)"
    ~phases:(phases_of acc)
    ~extra:
      [
        ("pipeline_rounds", Json.Int (Rounds.rounds acc));
        ("pipeline_bits", Json.Int (Rounds.bits acc));
      ]
    [
      cl ~direction:Report.Ge "fraction matching combinatorial optimum"
        (float_of_int !exact_count /. float_of_int !total)
        1.0;
      cl "iterations scaling exponent (sqrt + polylog at small |V|)" expo 1.0;
    ]

(* ------------------------------------------------------------------ *)
(* E12: the Figure-1 pipeline                                          *)

let e12 () =
  section "E12" "the Figure 1 pipeline, end to end";
  let g = Gen.erdos_renyi_connected (Prng.create 12) ~n:48 ~p:0.4 ~w_max:6 in
  let acc = Rounds.create ~bandwidth:(Model.bandwidth ~n:48) in
  let sp =
    Sparsify.run ~accountant:acc ~prng:(Prng.create 1) ~graph:g ~epsilon:0.5 ~t:6
      ~k:3 ()
  in
  let cert = Certify.bound (Exact.factor g) (Exact.factor sp.Sparsify.sparsifier) in
  Printf.printf "1. sparsifier (Thm 1.2): m %d -> %d, eps=%.3f, rounds=%d\n"
    (Graph.m g)
    (Graph.m sp.Sparsify.sparsifier)
    cert.Certify.epsilon_achieved (Rounds.rounds acc);
  let solver =
    Solver.preprocess ~accountant:acc ~prng:(Prng.create 2) ~graph:g ~t:6 ~k:3 ()
  in
  let prng = Prng.create 3 in
  let b = Vec.mean_center (Vec.init 48 (fun _ -> Prng.gaussian prng)) in
  let sol = Solver.solve ~accountant:acc solver ~b ~eps:1e-8 in
  Printf.printf "2. Laplacian solver (Thm 1.3): residual %.1e in %d iterations\n"
    sol.Solver.residual sol.Solver.iterations;
  let mdense =
    let l = Graph.laplacian_dense g in
    Dense.add l (Dense.of_diag (Vec.init 48 (fun _ -> 0.5 +. Prng.float prng)))
  in
  let x_ref = Vec.init 48 (fun _ -> Prng.gaussian prng) in
  let y = Dense.matvec mdense x_ref in
  let x_sdd =
    Lbcc_laplacian.Gremban.solve_with
      ~laplacian_solve:(fun vg vb ->
        let s = Solver.preprocess ~prng:(Prng.create 4) ~graph:vg ~t:6 ~k:3 () in
        (Solver.solve s ~b:vb ~eps:1e-10).Solver.solution)
      mdense y
  in
  let sdd_err = Vec.dist2 x_sdd x_ref /. Vec.norm2 x_ref in
  Printf.printf "3. SDD via Gremban + Thm 1.3 solver: relative error %.1e\n" sdd_err;
  let net =
    Network.random (Prng.create 5) ~n:8 ~density:0.3 ~max_capacity:5 ~max_cost:4
  in
  let inst = Mcmf_lp.build ~prng:(Prng.create 6) net in
  let gsolver = Mcmf_lp.laplacian_normal_solver ~backend:`Gremban inst in
  let d_test = Vec.init inst.Mcmf_lp.m_lp (fun _ -> 0.2 +. Prng.float prng) in
  let rhs_test = Vec.init inst.Mcmf_lp.n_lp (fun _ -> Prng.gaussian prng) in
  let s1 = gsolver.Problem.solve ~d:d_test ~rhs:rhs_test in
  let s2 =
    (Problem.dense_normal_solver inst.Mcmf_lp.problem).Problem.solve ~d:d_test
      ~rhs:rhs_test
  in
  let gremban_gap = Vec.dist2 s1 s2 /. Float.max 1.0 (Vec.norm2 s2) in
  Printf.printf "4. flow normal solve via Gremban doubling: agrees with dense %.1e\n"
    gremban_gap;
  let r = Mcmf_lp.solve ~prng:(Prng.create 7) net in
  Printf.printf "5. min-cost max-flow (Thm 1.1): value=%d cost=%d exact=%b\n"
    r.Mcmf_lp.value r.Mcmf_lp.cost r.Mcmf_lp.matches_baseline;
  report ~experiment:"E12" ~title:"the Figure 1 pipeline, end to end"
    ~phases:(phases_of acc)
    [
      cl "sparsifier eps_cert (epsilon target 0.5)" cert.Certify.epsilon_achieved 0.5;
      cl "Laplacian solver residual (eps 1e-8)" sol.Solver.residual 1e-8;
      cl "SDD relative error via Gremban" sdd_err 1e-6;
      cl "flow normal solve Gremban vs dense gap" gremban_gap 1e-6;
      cl ~direction:Report.Ge "min-cost flow exact"
        (if r.Mcmf_lp.matches_baseline then 1.0 else 0.0)
        1.0;
    ]

(* ------------------------------------------------------------------ *)
(* E13: naive baseline                                                 *)

let e13 () =
  section "E13" "context: rounds vs the naive 'ship the whole graph' baseline";
  Printf.printf "%4s %6s | %10s %9s | %12s\n" "n" "m" "naive rds" "sparsify"
    "solve(1e-8)";
  let max_preproc_ratio = ref 0.0 in
  let solve_rounds = Hashtbl.create 4 in
  List.iter
    (fun n ->
      let g = Gen.complete (Prng.create n) ~n ~w_max:8 in
      let m = Graph.m g in
      let bandwidth = Model.bandwidth ~n in
      let bits_per_edge =
        Lbcc_net.Payload.size [ Vertex_id n; Vertex_id n; Weight 8.0 ]
      in
      let naive = (n - 1) * Stdlib.max 1 (Bits.ceil_div bits_per_edge bandwidth) in
      let acc = Rounds.create ~bandwidth in
      let s = Solver.preprocess ~accountant:acc ~prng:(Prng.create 3) ~graph:g ~t:2 () in
      let prng = Prng.create 5 in
      let b = Vec.mean_center (Vec.init n (fun _ -> Prng.gaussian prng)) in
      let r = Solver.solve s ~b ~eps:1e-8 in
      max_preproc_ratio :=
        Float.max !max_preproc_ratio
          (float_of_int (Solver.preprocessing_rounds s)
          /. (log2f (float_of_int n) ** 5.0));
      Hashtbl.replace solve_rounds n r.Solver.rounds;
      Printf.printf "%4d %6d | %10d %9d | %12d\n" n m naive
        (Solver.preprocessing_rounds s)
        r.Solver.rounds)
    [ 16; 32; 64; 128 ];
  note "the naive baseline is Theta(n); sparsifier preprocessing is polylog-bounded\n";
  note "but constants dominate at these n; per-solve rounds are far below both.\n";
  report ~experiment:"E13"
    ~title:"rounds vs the naive 'ship the whole graph' baseline"
    [
      cl "max preprocessing rounds / log2^5(n)" !max_preproc_ratio 2.0;
      cl "solve rounds growth n=16 -> n=128 (vs 8x input growth)"
        (float_of_int (Hashtbl.find solve_rounds 128)
        /. float_of_int (Hashtbl.find solve_rounds 16))
        8.0;
    ]

(* ------------------------------------------------------------------ *)
(* E14: the intro's SSSP context                                       *)

let e14 () =
  section "E14" "context: classical distributed primitives across the models";
  Printf.printf
    "%-6s %5s %5s | %12s | %10s %10s\n" "algo" "n" "diam" "model" "supersteps"
    "rounds";
  let max_bcc_ratio = ref 0.0 in
  let run_all name make_result g =
    let per_model =
      List.map
        (fun (mname, model) ->
          let r = make_result model g in
          let supersteps, rounds = r in
          Printf.printf "%-6s %5d %5.0f | %12s | %10d %10d\n" name (Graph.n g)
            (Paths.diameter (Graph.map_weights (fun _ _ -> 1.0) g))
            mname supersteps rounds;
          rounds)
        [ ("BC", Model.broadcast_congest); ("BCC", Model.broadcast_congested_clique) ]
    in
    match per_model with
    | [ bc; bcc ] ->
        if name <> "sssp" then
          max_bcc_ratio :=
            Float.max !max_bcc_ratio (float_of_int bcc /. float_of_int bc)
    | _ -> ()
  in
  let ring = Gen.ring (Prng.create 14) ~n:64 ~w_max:8 in
  let er = Gen.erdos_renyi_connected (Prng.create 15) ~n:64 ~p:0.1 ~w_max:8 in
  List.iter
    (fun (gname, g) ->
      Printf.printf "-- %s --\n" gname;
      run_all "bfs"
        (fun model g ->
          let r = Lbcc_dist.Bfs.run ~model ~graph:g ~source:0 () in
          (r.Lbcc_dist.Bfs.supersteps, r.Lbcc_dist.Bfs.rounds))
        g;
      run_all "sssp"
        (fun model g ->
          let r = Lbcc_dist.Sssp.run ~model ~graph:g ~source:0 () in
          (r.Lbcc_dist.Sssp.supersteps, r.Lbcc_dist.Sssp.rounds))
        g;
      run_all "leader"
        (fun model g ->
          let r = Lbcc_dist.Leader.run ~model ~graph:g () in
          (r.Lbcc_dist.Leader.supersteps, r.Lbcc_dist.Leader.rounds))
        g)
    [ ("ring n=64", ring); ("sparse ER n=64", er) ];
  note "BFS/leader track the diameter in BC and flatten in the BCC; Bellman-Ford\n";
  note "SSSP stays Theta(n)-ish in both — the gap the paper's intro highlights\n";
  note "(best known BCC SSSP is O~(sqrt n) [Nan14]; min-cost flow now matches it).\n";
  report ~experiment:"E14"
    ~title:"classical distributed primitives across the models"
    [ cl "max BCC/BC round ratio (bfs, leader)" !max_bcc_ratio 1.0 ]

(* ------------------------------------------------------------------ *)
(* E15: ablation — the stretch parameter k inside the sparsifier       *)

let e15 () =
  section "E15" "ablation: spanner stretch k inside the sparsifier";
  Printf.printf
    "(paper: k = ceil(log n); smaller k = denser, better bundles; larger k = \
     cheaper rounds)\n";
  Printf.printf "%2s | %6s %9s %8s\n" "k" "m_H" "eps_cert" "rounds";
  let g = Gen.erdos_renyi_connected (Prng.create 15) ~n:48 ~p:0.6 ~w_max:4 in
  let sizes = Hashtbl.create 4 and eps_k2 = ref infinity in
  List.iter
    (fun k ->
      let r = Sparsify.run ~prng:(Prng.create 16) ~graph:g ~epsilon:0.5 ~t:4 ~k () in
      let c = Certify.bound (Exact.factor g) (Exact.factor r.Sparsify.sparsifier) in
      Hashtbl.replace sizes k (Graph.m r.Sparsify.sparsifier);
      if k = 2 then eps_k2 := c.Certify.epsilon_achieved;
      Printf.printf "%2d | %6d %9.3f %8d\n" k
        (Graph.m r.Sparsify.sparsifier)
        c.Certify.epsilon_achieved r.Sparsify.rounds)
    [ 2; 3; 4; 6 ];
  note "the k knob trades sparsifier size and quality against round count —\n";
  note "the paper's k = ceil(log n) sits at the cheap-rounds end.\n";
  report ~experiment:"E15" ~title:"ablation: spanner stretch k inside the sparsifier"
    [
      cl "eps_cert at k=2 (epsilon target 0.5)" !eps_k2 0.5;
      cl "m_H(k=6) / m_H(k=2) (size shrinks with k)"
        (float_of_int (Hashtbl.find sizes 6) /. float_of_int (Hashtbl.find sizes 2))
        1.0;
    ]

(* ------------------------------------------------------------------ *)
(* E16: ablation — Chebyshev vs CG as the outer iteration              *)

let e16 () =
  section "E16" "ablation: preconditioned Chebyshev vs preconditioned CG";
  Printf.printf
    "(the paper uses Chebyshev because its iteration count is deterministic\n\
     given kappa — each iteration is a broadcast round, so the schedule must\n\
     be known in advance; CG adapts but needs termination detection)\n";
  Printf.printf "%7s %8s | %10s %10s\n" "kappa" "eps" "chebyshev" "pcg";
  let n = 64 in
  let prng = Prng.create 16 in
  let max_cheb_ratio = ref 0.0 and max_pcg_ratio = ref 0.0 in
  List.iter
    (fun kappa ->
      let d =
        Vec.init n (fun i ->
            1.0 +. ((kappa -. 1.0) *. float_of_int i /. float_of_int (n - 1)))
      in
      let a = Dense.of_diag d in
      let solve_b r z = Vec.scale_into (1.0 /. kappa) r z in
      List.iter
        (fun eps ->
          let x = Vec.init n (fun _ -> Prng.gaussian prng) in
          let b = Dense.matvec a x in
          let cheb =
            Chebyshev.solve_adaptive ~matvec:(Dense.matvec_into a) ~solve_b
              ~kappa ~rtol:eps ~b
          in
          let pcg =
            Lbcc_linalg.Cg.solve_preconditioned ~matvec:(Dense.matvec_into a)
              ~precond:solve_b ~b ~tol:eps ()
          in
          max_cheb_ratio :=
            Float.max !max_cheb_ratio
              (float_of_int cheb.Chebyshev.iterations
              /. float_of_int (Chebyshev.iterations_bound ~kappa ~eps));
          max_pcg_ratio :=
            Float.max !max_pcg_ratio
              (float_of_int pcg.Lbcc_linalg.Cg.iterations
              /. float_of_int cheb.Chebyshev.iterations);
          Printf.printf "%7.0f %8.0e | %10d %10d\n" kappa eps
            cheb.Chebyshev.iterations pcg.Lbcc_linalg.Cg.iterations)
        [ 1e-6; 1e-10 ])
    [ 10.0; 1000.0 ];
  note "CG wins iterations (optimal Krylov) but is adaptive; Chebyshev's count\n";
  note "is fixed by (kappa, eps) — the property the BCC schedule needs.\n";
  report ~experiment:"E16"
    ~title:"ablation: preconditioned Chebyshev vs preconditioned CG"
    [
      cl "max chebyshev iterations / bound" !max_cheb_ratio 1.0;
      cl "max pcg / chebyshev iteration ratio" !max_pcg_ratio 1.0;
    ]

(* ------------------------------------------------------------------ *)
(* PERF: multicore wall-clock and allocation profile                   *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

let perf () =
  section "PERF" "multicore wall-clock and allocation profile";
  let cores = Domain.recommended_domain_count () in
  (* E11-style pipeline (sparsify -> Laplacian solve -> min-cost flow) at
     n = 512, run once per worker-pool size.  The outputs must be
     bit-identical — the pool is a wall-clock knob only. *)
  let n = 512 in
  let pipeline () =
    let g =
      Gen.erdos_renyi_connected (Prng.create 11) ~n ~p:(96.0 /. float_of_int n)
        ~w_max:8
    in
    let s = Solver.preprocess ~prng:(Prng.create 23) ~graph:g ~t:4 ~k:3 () in
    let prng = Prng.create 29 in
    let b = Vec.mean_center (Vec.init n (fun _ -> Prng.gaussian prng)) in
    let r = Solver.solve s ~b ~eps:1e-8 in
    let net =
      Network.random (Prng.create 5) ~n:10 ~density:0.3 ~max_capacity:4
        ~max_cost:4
    in
    let f = Mcmf_lp.solve ~prng:(Prng.create 7) net in
    (Graph.m (Solver.sparsifier s), r, f.Mcmf_lp.value, f.Mcmf_lp.cost)
  in
  let fingerprint (mh, (r : Solver.solve_result), v, c) =
    Printf.sprintf "%d|%s|%d|%d|%d" mh
      (String.concat ","
         (List.map
            (fun f -> Printf.sprintf "%Lx" (Int64.bits_of_float f))
            (Array.to_list r.Solver.solution)))
      r.Solver.iterations v c
  in
  let run_at d =
    Pool.set_default_domains d;
    let r, dt = time pipeline in
    (fingerprint r, dt)
  in
  let fp1, t1 = run_at 1 in
  let fp4, t4 = run_at 4 in
  Pool.set_default_domains 1;
  let identical = fp1 = fp4 in
  let speedup = t1 /. t4 in
  Printf.printf
    "pipeline n=%d: %.2fs at 1 domain, %.2fs at 4 domains (speedup %.2fx on %d core%s)\n"
    n t1 t4 speedup cores
    (if cores = 1 then "" else "s");
  Printf.printf "outputs bit-identical across pool sizes: %b\n" identical;
  (* Allocation profile of one high-precision Laplacian solve, reported as
     an absolute minor-heap figure. *)
  let n2 = 256 in
  let g2 = Gen.erdos_renyi_connected (Prng.create 13) ~n:n2 ~p:0.3 ~w_max:8 in
  let s2 = Solver.preprocess ~prng:(Prng.create 17) ~graph:g2 ~t:4 ~k:3 () in
  let prng = Prng.create 19 in
  let b2 = Vec.mean_center (Vec.init n2 (fun _ -> Prng.gaussian prng)) in
  let eps = 1e-8 in
  let (_, t_solve) = time (fun () -> Solver.solve s2 ~b:b2 ~eps) in
  let (r2, mw_new) = minor_words (fun () -> Solver.solve s2 ~b:b2 ~eps) in
  Printf.printf "laplacian solve n=%d (%d iterations): %.0f minor words\n" n2
    r2.Solver.iterations mw_new;
  note "claims: identical outputs at every pool size; >= 2x pipeline speedup\n";
  note "when >= 4 cores are available (recorded but not asserted on smaller\n";
  note "machines).\n";
  let speedup_claim =
    if cores >= 4 then
      cl ~direction:Report.Ge "pipeline n=512 speedup at 4 domains" speedup 2.0
    else
      cl ~direction:Report.Ge
        (Printf.sprintf
           "pipeline n=512 speedup at 4 domains (hardware-limited: %d core%s)"
           cores
           (if cores = 1 then "" else "s"))
        speedup 0.0
  in
  report ~experiment:"PERF" ~title:"multicore wall-clock and allocation profile"
    ~extra:
      [
        ("cores", Json.Int cores);
        ("hardware_limited", Json.Bool (cores < 4));
        ("domains_tested", Json.Arr [ Json.Int 1; Json.Int 4 ]);
        ( "seconds",
          Json.Obj
            [
              ("pipeline_n512_domains1", Json.Float t1);
              ("pipeline_n512_domains4", Json.Float t4);
              ("laplacian_solve_n256", Json.Float t_solve);
            ] );
        ("speedup_pipeline_4_domains", Json.Float speedup);
        ( "minor_words",
          Json.Obj [ ("laplacian_solve_in_place", Json.Float mw_new) ] );
      ]
    [
      cl ~direction:Report.Ge "pipeline outputs identical at 1 vs 4 domains"
        (if identical then 1.0 else 0.0)
        1.0;
      speedup_claim;
    ]

(* ------------------------------------------------------------------ *)
(* BATCH: prepared-operator service layer                              *)

let batch () =
  section "BATCH"
    "prepared operators: amortized rounds/query, batching, handle cache";
  let n = 96 in
  let g =
    Gen.erdos_renyi_connected (Prng.create 21) ~n ~p:0.25 ~w_max:8
  in
  let eps = 1e-8 in
  let rhs k =
    let prng = Prng.create 99 in
    List.init k (fun _ ->
        Vec.mean_center (Vec.init n (fun _ -> Prng.gaussian prng)))
  in
  (* Amortized rounds per query vs batch size: Thm 1.3 preprocessing is
     paid once per handle, so (prepare + k * query) / k must fall as k
     grows. *)
  let ks = [ 1; 2; 4; 8; 16 ] in
  Printf.printf "%4s %12s %12s %14s\n" "k" "prepare" "rounds/query"
    "amortized";
  let rows =
    List.map
      (fun k ->
        let p = Prepared.create ~ctx:(Ctx.make ~seed:5 ()) g in
        ignore (Prepared.solve_many ~eps p (rhs k) : Prepared.query_result list);
        let amortized = Prepared.amortized_rounds_per_query p in
        let per_query = Prepared.query_rounds p / k in
        Printf.printf "%4d %12d %12d %14.1f\n" k
          (Prepared.preprocessing_rounds p)
          per_query amortized;
        (k, Prepared.preprocessing_rounds p, per_query, amortized))
      ks
  in
  let amortized = List.map (fun (_, _, _, a) -> a) rows in
  let ratio_max =
    let rec worst acc = function
      | a :: (b :: _ as rest) -> worst (Float.max acc (b /. a)) rest
      | _ -> acc
    in
    worst 0.0 amortized
  in
  (* Per-query rounds must equal the standalone Thm 1.3 query phase. *)
  let standalone =
    let s = Solver.preprocess ~prng:(Prng.create 5) ~graph:g () in
    (Solver.solve s ~b:(List.hd (rhs 1)) ~eps).Solver.rounds
  in
  let per_query = match rows with (_, _, q, _) :: _ -> q | [] -> 0 in
  (* Wall-clock per solve and bit-identity at 1/2/4 domains, against the
     sequential reference. *)
  let k_fixed = 8 in
  let bs = rhs k_fixed in
  let fp qs =
    String.concat ";"
      (List.map
         (fun (q : Prepared.query_result) ->
           String.concat ","
             (List.map
                (fun f -> Printf.sprintf "%Lx" (Int64.bits_of_float f))
                (Array.to_list q.Prepared.solution)))
         qs)
  in
  let run_at d =
    Pool.set_default_domains d;
    let p = Prepared.create ~ctx:(Ctx.make ~seed:5 ()) g in
    let qs, dt = time (fun () -> Prepared.solve_many ~eps p bs) in
    (fp qs, dt /. float_of_int k_fixed)
  in
  let fp1, t1 = run_at 1 in
  let fp2, t2 = run_at 2 in
  let fp4, t4 = run_at 4 in
  Pool.set_default_domains 1;
  let fp_seq =
    let p = Prepared.create ~ctx:(Ctx.make ~seed:5 ()) g in
    fp (List.map (fun b -> Prepared.solve ~eps p ~b) bs)
  in
  let identical = fp1 = fp2 && fp2 = fp4 && fp1 = fp_seq in
  Printf.printf
    "batch k=%d wall-clock per solve: %.4fs (1 domain) %.4fs (2) %.4fs (4); \
     bit-identical=%b\n"
    k_fixed t1 t2 t4 identical;
  (* Handle cache: repeated creates on the identical graph hit.  The
     hit/miss/eviction counts come out of the cache's Metrics registry —
     the canonical export every consumer (this bench, the serve daemon's
     stats endpoint) reads, rather than a private snapshot. *)
  let cache_metrics = Metrics.create () in
  let cache = Cache.create ~capacity:4 ~metrics:cache_metrics () in
  let reps = 4 in
  for _ = 1 to reps do
    ignore
      (Prepared.create_cached ~cache ~ctx:(Ctx.make ~seed:5 ()) g
        : Prepared.t * bool)
  done;
  let hits = Metrics.counter cache_metrics "cache.hits" in
  let misses = Metrics.counter cache_metrics "cache.misses" in
  let hit_rate = float_of_int hits /. float_of_int (hits + misses) in
  Printf.printf "cache: %d prepares -> %d hits / %d misses (hit rate %.2f)\n"
    reps hits misses hit_rate;
  note
    "claims: amortized rounds/query strictly decreasing in k; batched\n\
     solutions bit-identical to sequential at 1/2/4 domains; per-query\n\
     rounds equal the standalone Thm 1.3 query phase; repeat prepares hit\n\
     the cache.\n";
  report ~experiment:"BATCH"
    ~title:"prepared-operator service: amortization, batching, cache"
    ~extra:
      [
        ("n", Json.Int n);
        ("batch_sizes", Json.Arr (List.map (fun k -> Json.Int k) ks));
        ( "amortized_rounds_per_query",
          Json.Arr (List.map (fun a -> Json.Float a) amortized) );
        ("prepare_rounds", Json.Int (match rows with (_, p, _, _) :: _ -> p | [] -> 0));
        ("query_rounds", Json.Int per_query);
        ( "seconds_per_solve",
          Json.Obj
            [
              ("domains1", Json.Float t1);
              ("domains2", Json.Float t2);
              ("domains4", Json.Float t4);
            ] );
        ( "cache",
          Json.Obj
            [
              ("prepares", Json.Int reps);
              ("hits", Json.Int hits);
              ("misses", Json.Int misses);
              ("hit_rate", Json.Float hit_rate);
            ] );
      ]
    [
      cl ~direction:Report.Le
        "max consecutive amortized-rounds ratio across k doublings" ratio_max
        0.95;
      cl ~direction:Report.Ge
        "batched solutions bit-identical at 1/2/4 domains vs sequential"
        (if identical then 1.0 else 0.0)
        1.0;
      cl ~direction:Report.Le
        "per-query rounds deviation from standalone Thm 1.3 query"
        (float_of_int (abs (per_query - standalone)))
        0.0;
      cl ~direction:Report.Ge "handle cache hit rate over repeated prepares"
        hit_rate 0.5;
    ]

(* ------------------------------------------------------------------ *)
(* SCALE: flat-core throughput and allocation at large n               *)

(* A deterministic mixing protocol on the engine: every vertex broadcasts
   a running accumulator every superstep for exactly [k] supersteps,
   folding its inbox in with masked addition.  Every vertex sends every
   superstep, so rounds, messages and bits are exact functions of the
   topology — the run is pure engine throughput. *)
let scale_wave ~graph ~acc ~k =
  let mix w u m = (w + m + u) land 0x3FFF_FFFF in
  let step ~round ~vertex:_ w inbox =
    let w = Engine.Inbox.fold mix w inbox in
    (w, Some w, round < k)
  in
  snd
    (Engine.run ~accountant:acc ~label:"scale-wave"
       ~model:Model.broadcast_congest ~graph
       ~size_bits:(fun w -> Bits.int_bits w)
       ~init:(fun v -> v land 0x3FFF_FFFF)
       ~step ~max_supersteps:(k + 1) ())

let scale () =
  section "SCALE" "flat-core scaling: rounds/sec, bytes/round, allocation vs n";
  Pool.set_default_domains 1;
  let ns = [ 1024; 2048; 4096; 8192 ] in
  (* Raw superstep throughput of Engine.run, and what its
     superstep loop allocates.  Setup (states, message slots, delivery
     plan) is amortized out by differencing a long run against a short one
     on the same graph: the per-superstep increment is what the loop itself
     allocates.  A claim caps it per vertex: the message path allocates
     nothing per delivery, so what is left is each step's result triple
     and [Some] cell, whatever the degree. *)
  let k_short = 32 and k_long = 256 in
  Printf.printf "%6s %9s %12s %12s %14s\n" "n" "rounds" "rounds/sec"
    "bytes/round" "words/superstep";
  let wave_rows =
    List.map
      (fun n ->
        let g =
          Gen.erdos_renyi_connected (Prng.create 31) ~n
            ~p:(12.0 /. float_of_int n) ~w_max:4
        in
        let acc_s = Rounds.create ~bandwidth:(Model.bandwidth ~n) in
        let (_ : Engine.stats), mw_short =
          minor_words (fun () -> scale_wave ~graph:g ~acc:acc_s ~k:k_short)
        in
        let acc = Rounds.create ~bandwidth:(Model.bandwidth ~n) in
        let (stats, mw_long), dt =
          time (fun () ->
              minor_words (fun () -> scale_wave ~graph:g ~acc ~k:k_long))
        in
        let words_per_superstep =
          (mw_long -. mw_short) /. float_of_int (k_long - k_short)
        in
        let rounds = Rounds.rounds acc in
        let rounds_per_sec = float_of_int rounds /. dt in
        let bytes_per_round =
          float_of_int (Rounds.bits acc) /. 8.0 /. float_of_int rounds
        in
        Printf.printf "%6d %9d %12.0f %12.1f %14.2f\n" n rounds rounds_per_sec
          bytes_per_round words_per_superstep;
        ignore (stats : Engine.stats);
        (n, rounds, Rounds.bits acc, rounds_per_sec, bytes_per_round,
         words_per_superstep, dt))
      ns
  in
  (* Every charged round fits the model.  The accountant records each
     superstep's largest broadcast, and a round carries at most B bits per
     sender, so total bits <= rounds * B (the n senders' sum, bounded by
     rounds * n * B, is never recorded). *)
  let worst_fill =
    List.fold_left
      (fun m (n, rounds, bits, _, _, _, _) ->
        let capacity = float_of_int rounds *. float_of_int (Model.bandwidth ~n) in
        Float.max m (float_of_int bits /. capacity))
      0.0 wave_rows
  in
  let n_top = List.fold_left Stdlib.max 0 ns in
  let worst_words_per_vertex =
    List.fold_left
      (fun m (n, _, _, _, _, words, _) -> Float.max m (words /. float_of_int n))
      0.0 wave_rows
  in
  note
    "claims: the wave allocates a bounded number of minor words per vertex\n\
     per superstep; its bits never exceed the model's per-round broadcast\n\
     capacity; the sweep reaches n = 8192.\n";
  let wave_json (n, rounds, bits, rps, bpr, words, dt) =
    Json.Obj
      [
        ("n", Json.Int n);
        ("rounds", Json.Int rounds);
        ("bits", Json.Int bits);
        ("rounds_per_sec", Json.Float rps);
        ("bytes_per_round", Json.Float bpr);
        ("minor_words_per_superstep", Json.Float words);
        ("seconds", Json.Float dt);
      ]
  in
  report ~experiment:"SCALE"
    ~title:"flat-core scaling: throughput and allocation up to n=8192"
    ~extra:
      [
        ("sizes", Json.Arr (List.map (fun n -> Json.Int n) ns));
        ("wave_supersteps", Json.Int k_long);
        ("wave", Json.Arr (List.map wave_json wave_rows));
      ]
    [
      cl ~direction:Report.Le
        "wave minor words per vertex per superstep (worst n)"
        worst_words_per_vertex 16.0;
      cl ~direction:Report.Le
        "wave bits / model broadcast capacity (worst n)" worst_fill 1.0;
      cl ~direction:Report.Ge "largest wave size completed"
        (float_of_int
           (List.fold_left
              (fun m (n, _, _, _, _, _, _) -> Stdlib.max m n)
              0 wave_rows))
        (float_of_int n_top);
    ]

(* ------------------------------------------------------------------ *)
(* BYZ: Byzantine delivery tiers — conformance, detection, overhead    *)

let byz () =
  section "BYZ" "Byzantine tiers: conformance sweep, detection, round overhead";
  let n = 16 in
  let model = Model.broadcast_congested_clique in
  let g =
    Gen.erdos_renyi_connected (Prng.create 42) ~n ~p:0.35 ~w_max:4
  in
  let f_max = Fault.max_tolerated ~n in
  let byz_faults ~count ~seed =
    Fault.create ~seed
      (Fault.spec ~byzantine:(List.init count Fun.id) ~byz_prob:0.15 ())
  in
  let seeds = List.init 20 (fun i -> i + 1) in
  let baseline = Bfs.run ~model ~graph:g ~source:0 () in
  let byz_run ~faults () =
    Bfs.run ~faults ~reliability:Model.Byzantine_safe ~model ~graph:g
      ~source:0 ()
  in
  (* Conformance: at f = f_max (the largest tolerated population) every
     fault-schedule seed must reproduce the lossless BFS distances and the
     quorum layer must report a clean run. *)
  let conform =
    List.filter
      (fun seed ->
        let r =
          byz_run ~faults:(byz_faults ~count:f_max ~seed) ()
        in
        r.Bfs.dist = baseline.Bfs.dist && Byzantine.Diag.ok (Option.get r.Bfs.byz))
      seeds
  in
  let conformance =
    float_of_int (List.length conform) /. float_of_int (List.length seeds)
  in
  Printf.printf "conformance at f = %d (= f_max, n = %d): %d/%d seeds\n" f_max
    n (List.length conform) (List.length seeds);
  (* Detection: one vertex past the bound must be flagged — the diagnostics
     turn tolerance_exceeded on and the CLI exits nonzero. *)
  let detect =
    List.filter
      (fun seed ->
        let r = byz_run ~faults:(byz_faults ~count:(f_max + 1) ~seed) () in
        not (Byzantine.Diag.ok (Option.get r.Bfs.byz)))
      seeds
  in
  let detection =
    float_of_int (List.length detect) /. float_of_int (List.length seeds)
  in
  Printf.printf "detection at f = %d (> f_max): %d/%d seeds flagged\n"
    (f_max + 1) (List.length detect) (List.length seeds);
  (* Round overhead of the three delivery tiers on the same lossless run. *)
  let rounds_at tier =
    let acc = Rounds.create ~bandwidth:(Model.bandwidth ~n) in
    ignore
      (Bfs.run ~accountant:acc ~reliability:tier ~model ~graph:g ~source:0 ()
        : Bfs.result);
    (Rounds.rounds acc, acc)
  in
  let r_none, _ = rounds_at Model.None in
  let r_crash, _ = rounds_at Model.Crash_safe in
  let r_byz, acc_byz = rounds_at Model.Byzantine_safe in
  Printf.printf "%-16s %8s %10s\n" "tier" "rounds" "overhead";
  List.iter
    (fun (tier, r) ->
      Printf.printf "%-16s %8d %9.1fx\n"
        (Model.reliability_name tier)
        r
        (float_of_int r /. float_of_int r_none))
    [ (Model.None, r_none); (Model.Crash_safe, r_crash);
      (Model.Byzantine_safe, r_byz) ];
  (* Determinism: the Byzantine run's outputs and diagnostics must be
     bit-identical at every worker-pool size. *)
  let fingerprint_at d =
    Pool.set_default_domains d;
    let r = byz_run ~faults:(byz_faults ~count:f_max ~seed:7) () in
    let diag = Option.get r.Bfs.byz in
    Printf.sprintf "%s|%d|%d|%d|%d"
      (String.concat "," (List.map string_of_int (Array.to_list r.Bfs.dist)))
      r.Bfs.supersteps diag.Byzantine.Diag.virtual_supersteps
      diag.Byzantine.Diag.echo_rounds diag.Byzantine.Diag.repairs_served
  in
  let fp1 = fingerprint_at 1 in
  let fp2 = fingerprint_at 2 in
  let fp4 = fingerprint_at 4 in
  Pool.set_default_domains 1;
  let identical = fp1 = fp2 && fp2 = fp4 in
  Printf.printf "byzantine run bit-identical at 1/2/4 domains: %b\n" identical;
  note "the echo-quorum layer buys f < n/3 equivocation tolerance for a\n";
  note "constant-factor round overhead; past the bound it fails loudly.\n";
  report ~experiment:"BYZ"
    ~title:"Byzantine tiers: conformance, detection, round overhead"
    ~phases:(phases_of acc_byz)
    ~extra:
      [
        ("n", Json.Int n);
        ("f_max", Json.Int f_max);
        ("seeds", Json.Int (List.length seeds));
        ("rounds_none", Json.Int r_none);
        ("rounds_crash_safe", Json.Int r_crash);
        ("rounds_byzantine_safe", Json.Int r_byz);
      ]
    [
      cl ~direction:Report.Ge "conformance fraction at f = f_max" conformance
        1.0;
      cl ~direction:Report.Ge "detection fraction at f = f_max + 1" detection
        1.0;
      cl ~direction:Report.Ge "crash-safe / none round overhead"
        (float_of_int r_crash /. float_of_int r_none)
        1.0;
      cl ~direction:Report.Ge "byzantine-safe / crash-safe round overhead"
        (float_of_int r_byz /. float_of_int r_crash)
        1.0;
      cl "byzantine-safe rounds per protocol round and vertex"
        (float_of_int r_byz /. float_of_int (r_none * n))
        16.0;
      cl ~direction:Report.Ge "outputs identical at 1/2/4 domains"
        (if identical then 1.0 else 0.0)
        1.0;
    ]

(* ------------------------------------------------------------------ *)
(* UPDATE: incremental re-sparsification vs full rebuild                *)

let update_exp () =
  section "UPDATE"
    "graph mutation: incremental update rounds vs full rebuild, certified";
  let module Fingerprint = Lbcc_service.Fingerprint in
  let g0 = Gen.grid (Prng.create 31) ~rows:10 ~cols:10 ~w_max:8 in
  let epsilon = 0.5 in
  let steps = 3 in
  let sizes = [ 1; 4; 16; 64 ] in
  Printf.printf "base: n=%d m=%d (grid), %d deltas per stream\n" (Graph.n g0)
    (Graph.m g0) steps;
  (* Canonical rendering of the sketch's edge set — the cross-domain
     identity check compares these strings. *)
  let sketch_fp sk =
    Graph.edges sk.Sparsify.sparsifier
    |> Array.to_list
    |> List.map (fun (e : Graph.edge) ->
           Printf.sprintf "%d-%d-%Lx" e.Graph.u e.Graph.v
             (Int64.bits_of_float e.Graph.w))
    |> String.concat ";"
  in
  (* One seeded delta stream per size k: k/2 inserts, k/4 deletes, the rest
     reweights, connectivity-preserving.  [full] controls whether the
     full-rebuild baseline and the certificates are computed (only in the
     measuring pass, not in the cross-domain replays). *)
  let run_stream ?(full = true) ~domains k =
    Pool.set_default_domains domains;
    let prng = Prng.create 7 in
    let dprng = Prng.create (100 + k) in
    let sk = ref (Sparsify.sketch ~prng ~graph:g0 ~epsilon ()) in
    let fp = ref (Fingerprint.graph g0) in
    let rows = ref [] in
    let fp_exact = ref true in
    for _ = 1 to steps do
      let d =
        Gen.delta ~w_max:8 ~connected:true dprng ~graph:!sk.Sparsify.base
          ~inserts:(Stdlib.max 1 (k / 2))
          ~deletes:(k / 4)
          ~reweights:(Stdlib.max 0 (k - (k / 2) - (k / 4)))
          ()
      in
      (* Patch the fingerprint in O(|delta|) and check it against a
         from-scratch fingerprint of the accumulated graph. *)
      fp := Fingerprint.apply !fp (Fingerprint.delta !sk.Sparsify.base d);
      sk := Sparsify.update ~prng !sk d;
      if not (Fingerprint.equal !fp (Fingerprint.graph !sk.Sparsify.base))
      then fp_exact := false;
      let full_rounds, eps_achieved =
        if full then begin
          let r =
            Sparsify.run ~prng:(Prng.create 7) ~graph:!sk.Sparsify.base
              ~epsilon ()
          in
          let cert =
            Certify.bound (Exact.factor !sk.Sparsify.base)
              (Exact.factor !sk.Sparsify.sparsifier)
          in
          (r.Sparsify.rounds, cert.Certify.epsilon_achieved)
        end
        else (0, 0.0)
      in
      rows :=
        (Graph.Delta.size d, !sk.Sparsify.generation,
         !sk.Sparsify.last_rounds, full_rounds, eps_achieved)
        :: !rows
    done;
    (List.rev !rows, sketch_fp !sk, !fp_exact)
  in
  Printf.printf "%6s %4s %10s %10s %7s %8s\n" "|d|" "gen" "upd-rnds"
    "full-rnds" "ratio" "eps";
  let all_rows = ref [] in
  let certified = ref true in
  let fp_exact_all = ref true in
  let identical = ref true in
  List.iter
    (fun k ->
      let rows, fp1, fpx = run_stream ~domains:1 k in
      let _, fp2, _ = run_stream ~full:false ~domains:2 k in
      let _, fp4, _ = run_stream ~full:false ~domains:4 k in
      if not (fp1 = fp2 && fp2 = fp4) then identical := false;
      if not fpx then fp_exact_all := false;
      List.iter
        (fun (dsz, gen, upd, fullr, eps) ->
          (* KPPS composition: generation g may compound the per-step
             epsilon, so certify against the composed budget. *)
          let budget = ((1.0 +. epsilon) ** float_of_int (1 + gen)) -. 1.0 in
          if eps > budget then certified := false;
          Printf.printf "%6d %4d %10d %10d %7.2f %8.3f\n" dsz gen upd fullr
            (float_of_int upd /. float_of_int (Stdlib.max 1 fullr))
            eps;
          all_rows := (k, dsz, gen, upd, fullr, eps) :: !all_rows)
        rows)
    sizes;
  Pool.set_default_domains 1;
  let all_rows = List.rev !all_rows in
  (* The headline ratio: mean update/full rounds over the small-delta
     streams (the regime the incremental path exists for). *)
  let small =
    List.filter (fun (k, _, _, _, _, _) -> k <= 4) all_rows
  in
  let small_ratio =
    List.fold_left
      (fun a (_, _, _, upd, fullr, _) ->
        a +. (float_of_int upd /. float_of_int (Stdlib.max 1 fullr)))
      0.0 small
    /. float_of_int (Stdlib.max 1 (List.length small))
  in
  Printf.printf
    "small deltas (<= 4 ops): mean update/full rounds ratio %.2f; certified=%b \
     fingerprint-exact=%b domains-identical=%b\n"
    small_ratio !certified !fp_exact_all !identical;
  note
    "claims: incremental updates cost measurably fewer rounds than full\n\
     rebuilds for small deltas; every updated sketch certifies within the\n\
     composed KPPS budget; the patched fingerprint equals a from-scratch\n\
     fingerprint; the post-update sketch is bit-identical at 1/2/4 domains.\n";
  report ~experiment:"UPDATE"
    ~title:"incremental re-sparsification under Graph.Delta streams"
    ~extra:
      [
        ("n", Json.Int (Graph.n g0));
        ("m", Json.Int (Graph.m g0));
        ("epsilon", Json.Float epsilon);
        ("steps_per_stream", Json.Int steps);
        ("delta_sizes", Json.Arr (List.map (fun k -> Json.Int k) sizes));
        ( "streams",
          Json.Arr
            (List.map
               (fun (k, dsz, gen, upd, fullr, eps) ->
                 Json.Obj
                   [
                     ("requested_ops", Json.Int k);
                     ("delta_ops", Json.Int dsz);
                     ("generation", Json.Int gen);
                     ("update_rounds", Json.Int upd);
                     ("full_rounds", Json.Int fullr);
                     ("epsilon_achieved", Json.Float eps);
                   ])
               all_rows) );
      ]
    [
      cl ~direction:Report.Le
        "mean update/full-rebuild rounds ratio, small deltas (<= 4 ops)"
        small_ratio 0.9;
      cl ~direction:Report.Ge
        "updated sketches certified within the composed error budget"
        (if !certified then 1.0 else 0.0)
        1.0;
      cl ~direction:Report.Ge
        "patched fingerprint equals from-scratch fingerprint"
        (if !fp_exact_all then 1.0 else 0.0)
        1.0;
      cl ~direction:Report.Ge
        "post-update sketch bit-identical at 1/2/4 domains"
        (if !identical then 1.0 else 0.0)
        1.0;
    ]

let all_experiments =
  [
    ("E1", e1);
    ("E2", e2);
    ("E3", e3);
    ("E4", e4);
    ("E5", e5);
    ("E6", e6);
    ("E7", e7);
    ("E8", e8);
    ("E9", e9);
    ("E10", e10);
    ("E11", e11);
    ("E12", e12);
    ("E13", e13);
    ("E14", e14);
    ("E15", e15);
    ("E16", e16);
    ("BYZ", byz);
    ("PERF", perf);
    ("BATCH", batch);
    ("UPDATE", update_exp);
    ("SCALE", scale);
  ]

let usage () =
  prerr_endline
    "usage: main.exe [E1..E16|BYZ|PERF|BATCH|UPDATE|SCALE]... [--json] [--out \
     DIR]\n\
     --json writes one BENCH_<EXP>.json per selected experiment; --out\n\
     selects the output directory (default: cwd).\n\
     Exit codes: 0 all claims hold; 1 a claim left its bound; 2 usage;\n\
     3 internal error.";
  exit 2

let () =
  let rec parse ids json out = function
    | [] -> (List.rev ids, json, out)
    | "--json" :: rest -> parse ids true out rest
    | "--out" :: dir :: rest -> parse ids json dir rest
    | [ "--out" ] -> usage ()
    | ("--help" | "-h") :: _ -> usage ()
    | id :: rest -> parse (id :: ids) json out rest
  in
  let ids, json, out = parse [] false "." (List.tl (Array.to_list Sys.argv)) in
  let requested = if ids = [] then List.map fst all_experiments else ids in
  (* Unknown experiment names are a usage error, detected before anything
     runs so a typo cannot silently skip part of a sweep. *)
  List.iter
    (fun id ->
      if not (List.mem_assoc id all_experiments) then begin
        Printf.eprintf "unknown experiment %s\n" id;
        exit 2
      end)
    requested;
  Printf.printf "Laplacian paradigm in the BCC — experiment harness\n";
  Printf.printf "experiments: %s\n" (String.concat " " requested);
  let run_all () =
    let failures = ref [] in
    List.iter
      (fun id ->
        let f = List.assoc id all_experiments in
        let t0 = Unix.gettimeofday () in
        let r = f () in
        if not (Report.all_within r) then failures := id :: !failures;
        if json then begin
          let path = Report.write ~dir:out r in
          Printf.printf "[%s report: %s within_bound=%b]\n" id path
            (Report.all_within r)
        end;
        Printf.printf "[%s done in %.1fs]\n" id (Unix.gettimeofday () -. t0))
      requested;
    List.rev !failures
  in
  (* Exit-code contract (DESIGN.md §8): 1 distinguishes "ran to completion
     but a claim left its bound" from 3, "the harness itself failed". *)
  match run_all () with
  | [] -> ()
  | bad ->
      Printf.printf "CLAIMS OUT OF BOUND: %s\n" (String.concat " " bad);
      exit 1
  | exception e ->
      Printf.eprintf "internal error: %s\n" (Printexc.to_string e);
      exit 3
