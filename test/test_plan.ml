(* Property tests for the engine's counting-sort delivery plan
   (lib/net/plan.ml): every segment reproduces sorted-adjacency order and
   the in-degrees match the graph's. *)

open Lbcc_util
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Plan = Lbcc_net.Plan

(* ------------------------------------------------------------------ *)
(* Delivery plan vs. sorted adjacency                                  *)

let graph_arb =
  QCheck.make
    ~print:(fun (seed, n, p) -> Printf.sprintf "seed=%d n=%d p=%.2f" seed n p)
    QCheck.Gen.(
      triple (int_range 1 1000) (int_range 3 40)
        (oneofl [ 0.05; 0.15; 0.4; 0.9 ]))

let sorted_neighbors g v =
  let a = Array.of_list (List.map fst (Graph.neighbors g v)) in
  Array.sort Int.compare a;
  a

let prop_plan_matches_sorted_adjacency =
  QCheck.Test.make ~name:"plan segments = sorted adjacency" ~count:200
    graph_arb
    (fun (seed, n, p) ->
      let g = Gen.erdos_renyi_connected (Prng.create seed) ~n ~p ~w_max:8 in
      let plan = Plan.plan g in
      let ok = ref true in
      for v = 0 to Graph.n g - 1 do
        let expect = sorted_neighbors g v in
        let got =
          Array.init (plan.Plan.off.(v + 1) - plan.Plan.off.(v)) (fun i ->
              plan.Plan.srcs.(plan.Plan.off.(v) + i))
        in
        if got <> expect then ok := false
      done;
      !ok)

let prop_plan_segments_ascending =
  QCheck.Test.make ~name:"plan segments ascending (sender order preserved)"
    ~count:200 graph_arb
    (fun (seed, n, p) ->
      let g = Gen.erdos_renyi_connected (Prng.create seed) ~n ~p ~w_max:8 in
      let plan = Plan.plan g in
      let ok = ref true in
      for v = 0 to Graph.n g - 1 do
        for i = plan.Plan.off.(v) to plan.Plan.off.(v + 1) - 2 do
          if plan.Plan.srcs.(i) > plan.Plan.srcs.(i + 1) then ok := false
        done
      done;
      !ok)

let test_plan_degrees () =
  let g = Gen.erdos_renyi_connected (Prng.create 7) ~n:30 ~p:0.2 ~w_max:8 in
  let plan = Plan.plan g in
  for v = 0 to Graph.n g - 1 do
    Alcotest.(check int)
      (Printf.sprintf "in-degree %d" v)
      (List.length (Graph.neighbors g v))
      (plan.Plan.off.(v + 1) - plan.Plan.off.(v))
  done

(* The suite keeps the id "packed" so the test ids stay stable. *)
let suites =
  [
    ( "packed",
      [
        QCheck_alcotest.to_alcotest prop_plan_matches_sorted_adjacency;
        QCheck_alcotest.to_alcotest prop_plan_segments_ascending;
        Alcotest.test_case "plan degrees" `Quick test_plan_degrees;
      ] );
  ]
