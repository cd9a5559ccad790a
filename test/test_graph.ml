open Lbcc_util
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Paths = Lbcc_graph.Paths
module Vec = Lbcc_linalg.Vec
module Dense = Lbcc_linalg.Dense
module Sparse = Lbcc_linalg.Sparse

let degree g v = List.length (Graph.neighbors g v)

(* Frobenius distance between two square matrices of the same size. *)
let dense_dist a b =
  let n = Dense.rows a in
  let sq = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let d = Dense.get a i j -. Dense.get b i j in
      sq := !sq +. (d *. d)
    done
  done;
  sqrt !sq

let triangle () =
  Graph.create ~n:3
    [ { Graph.u = 0; v = 1; w = 1.0 }; { u = 1; v = 2; w = 2.0 }; { u = 0; v = 2; w = 3.0 } ]

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)

let test_graph_basic () =
  let g = triangle () in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g);
  Alcotest.(check int) "degree" 2 (degree g 0);
  Alcotest.(check (float 1e-12)) "total weight" 6.0 (Graph.total_weight g)

let test_graph_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.create: self-loop")
    (fun () -> ignore (Graph.create ~n:2 [ { Graph.u = 1; v = 1; w = 1.0 } ]))

let test_graph_rejects_bad_weight () =
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Graph.create: weights must be positive and finite") (fun () ->
      ignore (Graph.create ~n:2 [ { Graph.u = 0; v = 1; w = 0.0 } ]))

let test_graph_other_endpoint () =
  let e = { Graph.u = 3; v = 7; w = 1.0 } in
  Alcotest.(check int) "other of u" 7 (Graph.other_endpoint e 3);
  Alcotest.(check int) "other of v" 3 (Graph.other_endpoint e 7)

let test_graph_sub_edges () =
  let g = triangle () in
  let h = Graph.sub_edges g [ 0; 2 ] in
  Alcotest.(check int) "m" 2 (Graph.m h);
  Alcotest.(check int) "n unchanged" 3 (Graph.n h)

let test_graph_map_weights () =
  let g = triangle () in
  let h = Graph.map_weights (fun _ e -> e.Graph.w *. 4.0) g in
  Alcotest.(check (float 1e-12)) "reweighted" 24.0 (Graph.total_weight h)

let test_graph_components () =
  let g =
    Graph.create ~n:5 [ { Graph.u = 0; v = 1; w = 1.0 }; { u = 2; v = 3; w = 1.0 } ]
  in
  let comp, count = Graph.components g in
  Alcotest.(check int) "3 components" 3 count;
  Alcotest.(check bool) "0 and 1 together" true (comp.(0) = comp.(1));
  Alcotest.(check bool) "0 and 2 apart" true (comp.(0) <> comp.(2));
  Alcotest.(check bool) "not connected" false (Graph.is_connected g)

let test_graph_coalesce () =
  let g =
    Graph.create ~n:3
      [
        { Graph.u = 0; v = 1; w = 1.0 };
        { u = 1; v = 0; w = 2.0 };
        { u = 1; v = 2; w = 3.0 };
      ]
  in
  let c = Graph.coalesce g in
  Alcotest.(check int) "merged" 2 (Graph.m c);
  Alcotest.(check (float 1e-12)) "summed weight" 3.0
    (List.fold_left
       (fun acc (e : Graph.edge) -> if e.u = 0 || e.v = 0 then acc +. e.w else acc)
       0.0
       (Array.to_list (Graph.edges c)));
  (* Spectral equivalence of coalescing. *)
  let lg = Graph.laplacian_dense g and lc = Graph.laplacian_dense c in
  Alcotest.(check (float 1e-9)) "same laplacian" 0.0
    (dense_dist lg lc)

(* ------------------------------------------------------------------ *)
(* Laplacian / incidence                                               *)

let test_laplacian_rows_sum_zero () =
  let prng = Prng.create 1 in
  let g = Gen.erdos_renyi_connected prng ~n:20 ~p:0.3 ~w_max:5 in
  let l = Graph.laplacian_dense g in
  for i = 0 to 19 do
    let row_sum = ref 0.0 in
    for j = 0 to 19 do
      row_sum := !row_sum +. Dense.get l i j
    done;
    Alcotest.(check (float 1e-9)) (Printf.sprintf "row %d" i) 0.0 !row_sum
  done

let test_laplacian_psd () =
  let prng = Prng.create 2 in
  let g = Gen.erdos_renyi_connected prng ~n:16 ~p:0.3 ~w_max:3 in
  let l = Graph.laplacian_dense g in
  for _ = 1 to 20 do
    let x = Vec.init 16 (fun _ -> Prng.gaussian prng) in
    Alcotest.(check bool) "x^T L x >= 0" true (Vec.dot x (Dense.matvec l x) >= -1e-9)
  done

let test_laplacian_btwb () =
  (* L = B^T W B *)
  let prng = Prng.create 3 in
  let g = Gen.erdos_renyi_connected prng ~n:12 ~p:0.4 ~w_max:4 in
  let edges = Graph.edges g in
  (* Incidence row e: +1 at the head v, -1 at the tail u. *)
  let b e x =
    if x = edges.(e).Graph.v then 1.0 else if x = edges.(e).Graph.u then -1.0
    else 0.0
  in
  let btwb =
    Dense.init 12 12 (fun i j ->
        let acc = ref 0.0 in
        Array.iteri
          (fun e (edge : Graph.edge) -> acc := !acc +. (b e i *. edge.w *. b e j))
          edges;
        !acc)
  in
  let l = Graph.laplacian_dense g in
  Alcotest.(check (float 1e-8)) "L = B^T W B" 0.0 (dense_dist l btwb)

let test_apply_laplacian_matches_dense () =
  let prng = Prng.create 4 in
  let g = Gen.erdos_renyi_connected prng ~n:15 ~p:0.3 ~w_max:6 in
  let l = Graph.laplacian_dense g in
  for _ = 1 to 10 do
    let x = Vec.init 15 (fun _ -> Prng.gaussian prng) in
    Alcotest.(check bool) "matrix-free Lx" true
      (Vec.dist2 (Graph.apply_laplacian g x) (Dense.matvec l x) < 1e-9)
  done

let test_laplacian_kills_constants () =
  let prng = Prng.create 5 in
  let g = Gen.grid prng ~rows:4 ~cols:5 in
  let ones = Vec.ones 20 in
  Alcotest.(check (float 1e-9)) "L 1 = 0" 0.0 (Vec.norm2 (Graph.apply_laplacian g ones))

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let test_gen_grid_shape () =
  let prng = Prng.create 7 in
  let g = Gen.grid prng ~rows:3 ~cols:4 in
  Alcotest.(check int) "n" 12 (Graph.n g);
  Alcotest.(check int) "m" ((2 * 4) + (3 * 3)) (Graph.m g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_gen_torus_regular () =
  let prng = Prng.create 8 in
  let g = Gen.torus prng ~rows:4 ~cols:5 in
  Alcotest.(check int) "m = 2n" 40 (Graph.m g);
  for v = 0 to 19 do
    Alcotest.(check int) (Printf.sprintf "degree %d" v) 4 (degree g v)
  done

let test_gen_complete () =
  let prng = Prng.create 9 in
  let g = Gen.complete prng ~n:7 in
  Alcotest.(check int) "m" 21 (Graph.m g)

let test_gen_ring () =
  let prng = Prng.create 10 in
  let g = Gen.ring prng ~n:9 in
  Alcotest.(check int) "m" 9 (Graph.m g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_gen_er_connected () =
  for seed = 1 to 5 do
    let prng = Prng.create seed in
    let g = Gen.erdos_renyi_connected prng ~n:30 ~p:0.05 ~w_max:8 in
    Alcotest.(check bool) "connected" true (Graph.is_connected g);
    Array.iter
      (fun e ->
        Alcotest.(check bool) "integral weight in range" true
          (Float.is_integer e.Graph.w && e.Graph.w >= 1.0 && e.Graph.w <= 8.0))
      (Graph.edges g)
  done

let test_gen_barbell () =
  let prng = Prng.create 11 in
  let g = Gen.barbell prng ~clique:5 ~path:3 in
  Alcotest.(check int) "n" 12 (Graph.n g);
  Alcotest.(check int) "m" (10 + 10 + 3) (Graph.m g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_gen_geometric_connected () =
  let prng = Prng.create 12 in
  let g = Gen.random_geometric prng ~n:40 ~radius:0.15 ~w_max:4 in
  Alcotest.(check bool) "connected (stitched)" true (Graph.is_connected g)

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)

let test_dijkstra_line () =
  let g =
    Graph.create ~n:4
      [
        { Graph.u = 0; v = 1; w = 1.0 };
        { u = 1; v = 2; w = 2.0 };
        { u = 2; v = 3; w = 3.0 };
      ]
  in
  let d = Paths.dijkstra g ~src:0 in
  Alcotest.(check (array (float 1e-12))) "line distances" [| 0.0; 1.0; 3.0; 6.0 |] d

let test_dijkstra_shortcut () =
  let g =
    Graph.create ~n:3
      [
        { Graph.u = 0; v = 1; w = 5.0 };
        { u = 1; v = 2; w = 5.0 };
        { u = 0; v = 2; w = 1.0 };
      ]
  in
  let d = Paths.dijkstra g ~src:0 in
  Alcotest.(check (float 1e-12)) "direct edge wins" 1.0 d.(2);
  Alcotest.(check (float 1e-12)) "via shortcut" 5.0 d.(1)

let test_dijkstra_unreachable () =
  let g = Graph.create ~n:3 [ { Graph.u = 0; v = 1; w = 1.0 } ] in
  let d = Paths.dijkstra g ~src:0 in
  Alcotest.(check bool) "unreachable is inf" true (d.(2) = infinity)

let test_bfs_hops () =
  let prng = Prng.create 15 in
  let g = Gen.ring prng ~n:10 in
  let d = Paths.bfs_hops g ~src:0 in
  Alcotest.(check int) "opposite side" 5 d.(5);
  Alcotest.(check int) "neighbor" 1 d.(1)

let test_stretch_subgraph () =
  let prng = Prng.create 16 in
  let g = Gen.complete prng ~n:8 in
  (* Spanning star through vertex 0: stretch of a unit-weight complete graph
     through a star is exactly 2. *)
  let star_ids =
    Array.to_list
      (Array.of_list
         (List.filteri
            (fun _ _ -> true)
            (List.init (Graph.m g) Fun.id)))
    |> List.filter (fun id ->
           let e = Graph.edge g id in
           e.Graph.u = 0 || e.Graph.v = 0)
  in
  let star = Graph.sub_edges g star_ids in
  Alcotest.(check (float 1e-12)) "star stretch" 2.0 (Paths.stretch g star)

let test_stretch_disconnected_inf () =
  let g = Graph.create ~n:3 [ { Graph.u = 0; v = 1; w = 1.0 }; { u = 1; v = 2; w = 1.0 } ] in
  let h = Graph.sub_edges g [ 0 ] in
  Alcotest.(check bool) "infinite stretch" true (Paths.stretch g h = infinity)

let test_all_pairs_symmetric () =
  let prng = Prng.create 17 in
  let g = Gen.erdos_renyi_connected prng ~n:12 ~p:0.3 ~w_max:5 in
  let d = Array.init 12 (fun src -> Paths.dijkstra g ~src) in
  for i = 0 to 11 do
    for j = 0 to 11 do
      Alcotest.(check (float 1e-9)) "symmetric" d.(i).(j) d.(j).(i)
    done
  done

let test_bellman_ford_matches_dijkstra () =
  let prng = Prng.create 18 in
  let g = Gen.erdos_renyi_connected prng ~n:16 ~p:0.3 ~w_max:7 in
  let arcs =
    Array.to_list (Graph.edges g)
    |> List.concat_map (fun (e : Graph.edge) -> [ (e.u, e.v, e.w); (e.v, e.u, e.w) ])
  in
  match Paths.bellman_ford ~n:16 ~arcs ~src:0 with
  | None -> Alcotest.fail "unexpected negative cycle"
  | Some d ->
      let expect = Paths.dijkstra g ~src:0 in
      Array.iteri
        (fun v dv -> Alcotest.(check (float 1e-9)) (Printf.sprintf "v%d" v) expect.(v) dv)
        d

let test_bellman_ford_negative_edges () =
  (* 0 ->(5) 1 ->(-3) 2: shortest 0-2 is 2. *)
  let arcs = [ (0, 1, 5.0); (1, 2, -3.0); (0, 2, 4.0) ] in
  match Paths.bellman_ford ~n:3 ~arcs ~src:0 with
  | None -> Alcotest.fail "no negative cycle here"
  | Some d -> Alcotest.(check (float 1e-9)) "via negative edge" 2.0 d.(2)

let test_bellman_ford_detects_negative_cycle () =
  let arcs = [ (0, 1, 1.0); (1, 2, -3.0); (2, 0, 1.0) ] in
  Alcotest.(check bool) "detected" true (Paths.bellman_ford ~n:3 ~arcs ~src:0 = None)

let test_diameter_ring () =
  let prng = Prng.create 19 in
  let g = Gen.ring prng ~n:10 in
  Alcotest.(check (float 1e-9)) "ring diameter" 5.0 (Paths.diameter g)

let prop_dijkstra_triangle_inequality =
  QCheck.Test.make ~name:"dijkstra satisfies triangle inequality" ~count:30
    QCheck.small_int (fun seed ->
      let prng = Prng.create seed in
      let g = Gen.erdos_renyi_connected prng ~n:12 ~p:0.3 ~w_max:6 in
      let d = Array.init 12 (fun src -> Paths.dijkstra g ~src) in
      let ok = ref true in
      for i = 0 to 11 do
        for j = 0 to 11 do
          for k = 0 to 11 do
            if d.(i).(j) > d.(i).(k) +. d.(k).(j) +. 1e-9 then ok := false
          done
        done
      done;
      !ok)

let suites =
  [
    ( "graph.structure",
      [
        Alcotest.test_case "basic" `Quick test_graph_basic;
        Alcotest.test_case "rejects self loop" `Quick test_graph_rejects_self_loop;
        Alcotest.test_case "rejects bad weight" `Quick test_graph_rejects_bad_weight;
        Alcotest.test_case "other endpoint" `Quick test_graph_other_endpoint;
        Alcotest.test_case "sub edges" `Quick test_graph_sub_edges;
        Alcotest.test_case "map weights" `Quick test_graph_map_weights;
        Alcotest.test_case "components" `Quick test_graph_components;
        Alcotest.test_case "coalesce" `Quick test_graph_coalesce;
      ] );
    ( "graph.laplacian",
      [
        Alcotest.test_case "rows sum zero" `Quick test_laplacian_rows_sum_zero;
        Alcotest.test_case "psd" `Quick test_laplacian_psd;
        Alcotest.test_case "L = B^T W B" `Quick test_laplacian_btwb;
        Alcotest.test_case "matrix-free matches" `Quick test_apply_laplacian_matches_dense;
        Alcotest.test_case "kills constants" `Quick test_laplacian_kills_constants;
      ] );
    ( "graph.generators",
      [
        Alcotest.test_case "grid" `Quick test_gen_grid_shape;
        Alcotest.test_case "torus regular" `Quick test_gen_torus_regular;
        Alcotest.test_case "complete" `Quick test_gen_complete;
        Alcotest.test_case "ring" `Quick test_gen_ring;
        Alcotest.test_case "er connected" `Quick test_gen_er_connected;
        Alcotest.test_case "barbell" `Quick test_gen_barbell;
        Alcotest.test_case "geometric connected" `Quick test_gen_geometric_connected;
      ] );
    ( "graph.paths",
      [
        Alcotest.test_case "dijkstra line" `Quick test_dijkstra_line;
        Alcotest.test_case "dijkstra shortcut" `Quick test_dijkstra_shortcut;
        Alcotest.test_case "dijkstra unreachable" `Quick test_dijkstra_unreachable;
        Alcotest.test_case "bfs hops" `Quick test_bfs_hops;
        Alcotest.test_case "star stretch" `Quick test_stretch_subgraph;
        Alcotest.test_case "disconnected stretch" `Quick test_stretch_disconnected_inf;
        Alcotest.test_case "apsp symmetric" `Quick test_all_pairs_symmetric;
        Alcotest.test_case "bellman-ford vs dijkstra" `Quick
          test_bellman_ford_matches_dijkstra;
        Alcotest.test_case "bellman-ford negative edges" `Quick
          test_bellman_ford_negative_edges;
        Alcotest.test_case "bellman-ford negative cycle" `Quick
          test_bellman_ford_detects_negative_cycle;
        Alcotest.test_case "diameter" `Quick test_diameter_ring;
        QCheck_alcotest.to_alcotest prop_dijkstra_triangle_inequality;
      ] );
  ]
