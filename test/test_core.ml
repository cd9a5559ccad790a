open Lbcc_util
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Vec = Lbcc_linalg.Vec
module Lbcc = Lbcc_core.Lbcc

let test_version () =
  Alcotest.(check bool) "nonempty version" true (String.length Lbcc.version > 0)

let test_sparsify_report_structure () =
  let prng = Prng.create 1 in
  let g = Gen.erdos_renyi_connected prng ~n:24 ~p:0.4 ~w_max:4 in
  let r = Lbcc.sparsify ~ctx:(Lbcc.Ctx.make ~seed:2 ()) ~epsilon:0.5 ~t:3 g in
  Alcotest.(check bool) "bandwidth positive" true (r.Lbcc.rounds.Lbcc.bandwidth > 0);
  Alcotest.(check bool) "breakdown nonempty" true (r.Lbcc.rounds.Lbcc.breakdown <> []);
  let sum = List.fold_left (fun acc (_, v) -> acc + v) 0 r.Lbcc.rounds.Lbcc.breakdown in
  Alcotest.(check int) "breakdown sums to total" r.Lbcc.rounds.Lbcc.total sum;
  Alcotest.(check bool) "certificate finite" true
    (Float.is_finite r.Lbcc.epsilon_achieved)

(* Above n = 400 the front door certifies by power iteration with a margin.
   Sixty power iterations measure eps = 0.963 on this sparsifier, and an
   inner (probed) estimate reads 0.079; the threshold tells them apart. *)
let test_sparsify_above_exact_range () =
  let g =
    Gen.erdos_renyi_connected (Prng.create 41) ~n:420 ~p:(24.0 /. 420.0) ~w_max:8
  in
  let r = Lbcc.sparsify ~ctx:(Lbcc.Ctx.make ~seed:5 ()) ~t:4 g in
  Alcotest.(check bool)
    (Printf.sprintf "eps %.3f >= 0.9" r.Lbcc.epsilon_achieved)
    true
    (r.Lbcc.epsilon_achieved >= 0.9)

(* Same vertex count and the same edge array, in order. *)
let same_graph g h = Graph.n g = Graph.n h && Graph.edges g = Graph.edges h

let test_sparsify_deterministic_by_seed () =
  let prng = Prng.create 3 in
  let g = Gen.erdos_renyi_connected prng ~n:24 ~p:0.4 ~w_max:4 in
  let r1 = Lbcc.sparsify ~ctx:(Lbcc.Ctx.make ~seed:7 ()) ~t:2 g in
  let r2 = Lbcc.sparsify ~ctx:(Lbcc.Ctx.make ~seed:7 ()) ~t:2 g in
  Alcotest.(check bool) "same output for same seed" true
    (same_graph r1.Lbcc.sparsifier r2.Lbcc.sparsifier);
  let r3 = Lbcc.sparsify ~ctx:(Lbcc.Ctx.make ~seed:8 ()) ~t:2 g in
  (* Different seeds will almost surely differ on a random graph. *)
  Alcotest.(check bool) "different seed differs" true
    (not (same_graph r1.Lbcc.sparsifier r3.Lbcc.sparsifier)
    || Graph.m r1.Lbcc.sparsifier = Graph.m g)

let test_solve_laplacian_on_grid () =
  let prng = Prng.create 4 in
  let g = Gen.grid prng ~rows:5 ~cols:5 ~w_max:3 in
  let b = Vec.mean_center (Vec.init 25 (fun i -> float_of_int (i mod 3))) in
  let r = Lbcc.solve_laplacian ~ctx:(Lbcc.Ctx.make ~seed:5 ()) ~eps:1e-10 g ~b in
  Alcotest.(check bool) "residual" true (r.Lbcc.residual < 1e-8);
  Alcotest.(check bool) "round split" true
    (r.Lbcc.preprocessing_rounds > r.Lbcc.solve_rounds)

let test_effective_resistance_parallel_edges_law () =
  (* Two vertices joined by conductances 2 and 3 in parallel (after
     coalescing): R = 1/(2+3). *)
  let g =
    Graph.coalesce
      (Graph.create ~n:2
         [ { Graph.u = 0; v = 1; w = 2.0 }; { u = 0; v = 1; w = 3.0 } ])
  in
  let r = Lbcc.effective_resistance g ~s:0 ~t:1 in
  Alcotest.(check (float 1e-9)) "parallel conductances" (1.0 /. 5.0)
    r.Lbcc.resistance;
  (* The bugfixed API reports accounting instead of discarding it. *)
  Alcotest.(check bool) "query rounds tracked" true (r.Lbcc.query_rounds > 0);
  Alcotest.(check bool) "report sums" true
    (r.Lbcc.rounds.Lbcc.total
    = List.fold_left (fun a (_, r) -> a + r) 0 r.Lbcc.rounds.Lbcc.breakdown)

let test_effective_resistance_symmetric () =
  let prng = Prng.create 6 in
  let g = Gen.erdos_renyi_connected prng ~n:20 ~p:0.3 ~w_max:4 in
  let r1 = Lbcc.effective_resistance ~ctx:(Lbcc.Ctx.make ~seed:9 ()) g ~s:2 ~t:11 in
  let r2 = Lbcc.effective_resistance ~ctx:(Lbcc.Ctx.make ~seed:9 ()) g ~s:11 ~t:2 in
  Alcotest.(check (float 1e-9)) "symmetric" r1.Lbcc.resistance
    r2.Lbcc.resistance;
  Alcotest.(check (float 1e-12)) "zero on self" 0.0
    (Lbcc.effective_resistance g ~s:3 ~t:3).Lbcc.resistance

let test_min_cost_max_flow_report () =
  let net =
    Lbcc_flow.Network.random (Prng.create 7) ~n:7 ~density:0.3 ~max_capacity:4
      ~max_cost:3
  in
  let r = Lbcc.min_cost_max_flow ~ctx:(Lbcc.Ctx.make ~seed:10 ()) net in
  Alcotest.(check bool) "exact" true r.Lbcc.exact;
  Alcotest.(check bool) "rounds tracked" true (r.Lbcc.rounds.Lbcc.total > 0);
  Alcotest.(check bool) "flow validates" true
    (Lbcc_flow.Network.is_flow net r.Lbcc.flow)

let prop_coalesce_preserves_laplacian =
  QCheck.Test.make ~name:"coalesce preserves the Laplacian" ~count:40
    QCheck.small_int (fun seed ->
      let prng = Prng.create (5000 + seed) in
      let n = 4 + Prng.int prng 10 in
      (* Random multigraph: duplicate some edges on purpose. *)
      let edges = ref [] in
      for _ = 1 to 3 * n do
        let u = Prng.int prng n in
        let v = Prng.int prng n in
        if u <> v then
          edges := { Graph.u; v; w = 1.0 +. Prng.float prng } :: !edges
      done;
      match !edges with
      | [] -> true
      | es ->
          let g = Graph.create ~n es in
          let c = Graph.coalesce g in
          let lg = Graph.laplacian_dense g and lc = Graph.laplacian_dense c in
          let n = Lbcc_linalg.Dense.rows lg in
          let sq = ref 0.0 in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              let d = Lbcc_linalg.Dense.get lg i j -. Lbcc_linalg.Dense.get lc i j in
              sq := !sq +. (d *. d)
            done
          done;
          sqrt !sq < 1e-9)

let suites =
  [
    ( "core.api",
      [
        Alcotest.test_case "version" `Quick test_version;
        Alcotest.test_case "sparsify report" `Quick test_sparsify_report_structure;
        Alcotest.test_case "sparsify above exact range" `Quick
          test_sparsify_above_exact_range;
        Alcotest.test_case "seed determinism" `Quick test_sparsify_deterministic_by_seed;
        Alcotest.test_case "solve on grid" `Quick test_solve_laplacian_on_grid;
        Alcotest.test_case "parallel resistors" `Quick
          test_effective_resistance_parallel_edges_law;
        Alcotest.test_case "resistance symmetric" `Quick
          test_effective_resistance_symmetric;
        Alcotest.test_case "flow report" `Slow test_min_cost_max_flow_report;
        QCheck_alcotest.to_alcotest prop_coalesce_preserves_laplacian;
      ] );
  ]
