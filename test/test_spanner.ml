open Lbcc_util
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Paths = Lbcc_graph.Paths
module Spanner = Lbcc_spanner.Spanner
module Bundle = Lbcc_sparsifier.Bundle

let run_spanner ?(seed = 1) ~graph ~p ~k () =
  Spanner.run ~prng:(Prng.create seed) ~graph ~p ~k ()

let ones_p g = Array.make (Graph.m g) 1.0
let ones_state g = Spanner.state ~graph:g ~p:(ones_p g)

(* With p ≡ 1 the algorithm is Baswana–Sen: nothing is ever rejected. *)
let test_deterministic_no_rejections () =
  for seed = 1 to 5 do
    let prng = Prng.create (100 + seed) in
    let g = Gen.erdos_renyi_connected prng ~n:40 ~p:0.3 ~w_max:6 in
    let r = run_spanner ~seed ~graph:g ~p:(ones_p g) ~k:3 () in
    Alcotest.(check (list int)) "F- empty" [] r.Spanner.fminus;
    Alcotest.(check bool) "views agree" true r.Spanner.views_agree
  done

let stretch_of g fplus = Paths.stretch g (Graph.sub_edges g fplus)

let test_stretch_bound_deterministic () =
  List.iter
    (fun k ->
      for seed = 1 to 3 do
        let prng = Prng.create (7 * seed) in
        let g = Gen.erdos_renyi_connected prng ~n:36 ~p:0.4 ~w_max:5 in
        let r = run_spanner ~seed ~graph:g ~p:(ones_p g) ~k () in
        let s = stretch_of g r.Spanner.fplus in
        Alcotest.(check bool)
          (Printf.sprintf "stretch k=%d seed=%d: %.2f <= %d" k seed s ((2 * k) - 1))
          true
          (s <= float_of_int ((2 * k) - 1) +. 1e-9)
      done)
    [ 1; 2; 3; 4 ]

(* Lemma 3.1: S = (V, F+) is a (2k-1)-spanner of (V, F+ ∪ E'') for every
   E'' disjoint from F. *)
let test_stretch_bound_probabilistic () =
  List.iter
    (fun pe ->
      for seed = 1 to 3 do
        let prng = Prng.create (13 * seed) in
        let g = Gen.erdos_renyi_connected prng ~n:32 ~p:0.35 ~w_max:4 in
        let k = 3 in
        let p = Array.make (Graph.m g) pe in
        let r = run_spanner ~seed ~graph:g ~p ~k () in
        Alcotest.(check bool) "views agree" true r.Spanner.views_agree;
        let in_f = Hashtbl.create 64 in
        List.iter (fun e -> Hashtbl.replace in_f e ()) r.Spanner.fplus;
        List.iter (fun e -> Hashtbl.replace in_f e ()) r.Spanner.fminus;
        let e'' =
          List.filter (fun e -> not (Hashtbl.mem in_f e)) (List.init (Graph.m g) Fun.id)
        in
        let extended = Graph.sub_edges g (List.sort compare (r.Spanner.fplus @ e'')) in
        let h = Graph.sub_edges g r.Spanner.fplus in
        let s = Paths.stretch extended h in
        Alcotest.(check bool)
          (Printf.sprintf "prob stretch p=%.2f: %.2f" pe s)
          true
          (s <= float_of_int ((2 * k) - 1) +. 1e-9)
      done)
    [ 0.25; 0.5; 0.75 ]

(* The coupling of Lemma 3.1's proof: re-running with p ≡ 1 on
   (V, F+ ∪ E'') and the same marking randomness reproduces F+ exactly. *)
let test_coupling_with_deterministic_rerun () =
  for seed = 1 to 4 do
    let prng = Prng.create (31 * seed) in
    let g = Gen.erdos_renyi_connected prng ~n:28 ~p:0.3 ~w_max:4 in
    let k = 3 in
    let p = Array.make (Graph.m g) 0.5 in
    let r = run_spanner ~seed ~graph:g ~p ~k () in
    let in_fminus = Hashtbl.create 64 in
    List.iter (fun e -> Hashtbl.replace in_fminus e ()) r.Spanner.fminus;
    let surviving =
      List.filter (fun e -> not (Hashtbl.mem in_fminus e)) (List.init (Graph.m g) Fun.id)
    in
    let g' = Graph.sub_edges g surviving in
    (* Same seed => same per-vertex mark streams (marks are drawn from a
       dedicated stream, one draw per vertex per phase). *)
    let r' = run_spanner ~seed ~graph:g' ~p:(ones_p g') ~k () in
    let fplus' = List.map (fun e -> List.nth surviving e) r'.Spanner.fplus in
    Alcotest.(check (list int)) "same spanner" r.Spanner.fplus (List.sort compare fplus')
  done

let test_p_zero_rejects_everything_tried () =
  let prng = Prng.create 99 in
  let g = Gen.erdos_renyi_connected prng ~n:24 ~p:0.4 ~w_max:3 in
  let p = Array.make (Graph.m g) 0.0 in
  let r = run_spanner ~seed:5 ~graph:g ~p ~k:3 () in
  Alcotest.(check (list int)) "no spanner edges" [] r.Spanner.fplus;
  Alcotest.(check bool) "some edges tried and rejected" true
    (List.length r.Spanner.fminus > 0)

let test_k1_takes_all_edges () =
  let prng = Prng.create 77 in
  let g = Gen.erdos_renyi_connected prng ~n:16 ~p:0.3 ~w_max:4 in
  let r = run_spanner ~seed:2 ~graph:g ~p:(ones_p g) ~k:1 () in
  Alcotest.(check int) "spanner = graph for k=1" (Graph.m g)
    (List.length r.Spanner.fplus)

let test_spanner_size_reasonable () =
  (* |F+| = O(k n^{1+1/k}); check against the bound with a generous
     constant on a dense graph where sparsification is visible. *)
  let prng = Prng.create 55 in
  let n = 64 in
  let g = Gen.erdos_renyi_connected prng ~n ~p:0.8 ~w_max:1 in
  let k = 3 in
  let r = run_spanner ~seed:3 ~graph:g ~p:(ones_p g) ~k () in
  let bound =
    8.0 *. float_of_int k *. (float_of_int n ** (1.0 +. (1.0 /. float_of_int k)))
  in
  let size = List.length r.Spanner.fplus in
  Alcotest.(check bool)
    (Printf.sprintf "|F+| = %d <= %.0f" size bound)
    true
    (float_of_int size <= bound);
  Alcotest.(check bool) "sparser than input" true (size < Graph.m g)

let test_orientation_covers_fplus () =
  let prng = Prng.create 42 in
  let g = Gen.erdos_renyi_connected prng ~n:30 ~p:0.4 ~w_max:4 in
  let r = run_spanner ~seed:4 ~graph:g ~p:(ones_p g) ~k:3 () in
  Alcotest.(check int) "one orientation per edge"
    (List.length r.Spanner.fplus)
    (Array.length r.Spanner.orientation);
  List.iteri
    (fun pos e ->
      let from_, to_ = r.Spanner.orientation.(pos) in
      let ed = Graph.edge g e in
      Alcotest.(check bool) "orientation endpoints match edge" true
        ((from_ = ed.Graph.u && to_ = ed.Graph.v)
        || (from_ = ed.Graph.v && to_ = ed.Graph.u)))
    r.Spanner.fplus

let test_out_degree_bounded () =
  let prng = Prng.create 43 in
  let n = 64 in
  let g = Gen.erdos_renyi_connected prng ~n ~p:0.6 ~w_max:1 in
  let k = 3 in
  let r = run_spanner ~seed:6 ~graph:g ~p:(ones_p g) ~k () in
  let deg = Spanner.out_degrees g r in
  let max_deg = Array.fold_left Stdlib.max 0 deg in
  (* O(k n^{1/k}) with a generous constant (expectation bound). *)
  let bound = 10.0 *. float_of_int k *. (float_of_int n ** (1.0 /. float_of_int k)) in
  Alcotest.(check bool)
    (Printf.sprintf "max out-degree %d <= %.0f" max_deg bound)
    true
    (float_of_int max_deg <= bound)

let test_rounds_charged () =
  let prng = Prng.create 44 in
  let g = Gen.erdos_renyi_connected prng ~n:20 ~p:0.3 ~w_max:4 in
  let r = run_spanner ~seed:7 ~graph:g ~p:(ones_p g) ~k:3 () in
  Alcotest.(check bool) "rounds positive" true (r.Spanner.rounds > 0);
  Alcotest.(check bool) "supersteps positive" true (r.Spanner.supersteps > 0)

let test_rejects_bad_inputs () =
  let prng = Prng.create 45 in
  let g = Gen.ring prng ~n:5 in
  Alcotest.check_raises "bad k" (Invalid_argument "Spanner.run: k must be >= 1")
    (fun () -> ignore (run_spanner ~graph:g ~p:(ones_p g) ~k:0 ()));
  Alcotest.check_raises "bad p length"
    (Invalid_argument "Spanner.run: p has wrong length") (fun () ->
      ignore (run_spanner ~graph:g ~p:[| 1.0 |] ~k:2 ()));
  let p = ones_p g in
  p.(0) <- Float.nan;
  Alcotest.check_raises "NaN probability"
    (Invalid_argument "Spanner.run: probability out of range") (fun () ->
      ignore (run_spanner ~graph:g ~p ~k:2 ()))

(* Marginal probability: among edges that were tried (landed in F), the
   fraction accepted should track p. *)
let test_acceptance_rate_tracks_p () =
  let pe = 0.3 in
  let accepted = ref 0 and tried = ref 0 in
  for seed = 1 to 30 do
    let prng = Prng.create (1000 + seed) in
    let g = Gen.erdos_renyi_connected prng ~n:24 ~p:0.3 ~w_max:1 in
    let p = Array.make (Graph.m g) pe in
    let r = run_spanner ~seed ~graph:g ~p ~k:2 () in
    accepted := !accepted + List.length r.Spanner.fplus;
    tried := !tried + List.length r.Spanner.fplus + List.length r.Spanner.fminus
  done;
  let rate = float_of_int !accepted /. float_of_int !tried in
  Alcotest.(check bool)
    (Printf.sprintf "acceptance rate %.3f ~ %.3f" rate pe)
    true
    (Float.abs (rate -. pe) < 0.05)

let test_cluster_ids_are_vertices () =
  let prng = Prng.create 60 in
  let g = Gen.erdos_renyi_connected prng ~n:30 ~p:0.3 ~w_max:3 in
  let r = run_spanner ~seed:9 ~graph:g ~p:(ones_p g) ~k:3 () in
  Array.iter
    (function
      | Some c -> Alcotest.(check bool) "valid center id" true (c >= 0 && c < 30)
      | None -> ())
    r.Spanner.clusters

let test_k1_singleton_clusters () =
  let prng = Prng.create 61 in
  let g = Gen.ring prng ~n:12 in
  let r = run_spanner ~seed:10 ~graph:g ~p:(ones_p g) ~k:1 () in
  Array.iteri
    (fun v c -> Alcotest.(check (option int)) "own singleton" (Some v) c)
    r.Spanner.clusters

let test_phase_breakdown_labels () =
  let prng = Prng.create 62 in
  let g = Gen.erdos_renyi_connected prng ~n:24 ~p:0.4 ~w_max:3 in
  let acc =
    Lbcc_net.Rounds.create ~bandwidth:(Lbcc_net.Model.bandwidth ~n:24)
  in
  let _ = Spanner.run_on ~accountant:acc ~prng:(Prng.create 11) ~k:3
      (ones_state g) in
  let breakdown = Lbcc_net.Rounds.breakdown acc in
  List.iter
    (fun label ->
      Alcotest.(check bool) (label ^ " present") true (List.mem_assoc label breakdown))
    [ "spanner/marking"; "spanner/phase-info"; "spanner/join-marked";
      "spanner/final-connect" ]

(* ------------------------------------------------------------------ *)
(* Bundles                                                             *)

let test_bundle_partitions () =
  let prng = Prng.create 46 in
  let g = Gen.erdos_renyi_connected prng ~n:32 ~p:0.5 ~w_max:3 in
  let p = ones_p g in
  let b = Bundle.run ~prng:(Prng.create 8) ~k:3 ~t:3 (Spanner.state ~graph:g ~p) in
  (* With p = 1 nothing is rejected and bundle edges are distinct. *)
  Alcotest.(check (list int)) "no rejections" [] b.Bundle.rejected;
  let sorted = List.sort_uniq compare b.Bundle.bundle in
  Alcotest.(check int) "no duplicates" (List.length b.Bundle.bundle)
    (List.length sorted)

let test_bundle_preserves_connectivity () =
  let prng = Prng.create 47 in
  let g = Gen.erdos_renyi_connected prng ~n:32 ~p:0.5 ~w_max:3 in
  let b = Bundle.run ~prng:(Prng.create 9) ~k:3 ~t:2 (ones_state g) in
  Alcotest.(check bool) "bundle spans" true
    (Graph.is_connected (Graph.sub_edges g b.Bundle.bundle))

let test_bundle_first_spanner_stretch () =
  let prng = Prng.create 48 in
  let g = Gen.erdos_renyi_connected prng ~n:32 ~p:0.5 ~w_max:3 in
  let k = 3 in
  let b = Bundle.run ~prng:(Prng.create 10) ~k ~t:2 (ones_state g) in
  (* The union is at least as good as a single spanner. *)
  let s = Paths.stretch g (Graph.sub_edges g b.Bundle.bundle) in
  Alcotest.(check bool) "bundle stretch" true (s <= float_of_int ((2 * k) - 1) +. 1e-9)

let test_bundle_grows_with_t () =
  let prng = Prng.create 49 in
  let g = Gen.erdos_renyi_connected prng ~n:48 ~p:0.7 ~w_max:1 in
  let b1 = Bundle.run ~prng:(Prng.create 11) ~k:4 ~t:1 (ones_state g) in
  let b3 = Bundle.run ~prng:(Prng.create 11) ~k:4 ~t:3 (ones_state g) in
  Alcotest.(check bool) "more spanners, more edges" true
    (List.length b3.Bundle.bundle > List.length b1.Bundle.bundle)

(* The reference for a bundle over a live mask: [t] public [Spanner.run]
   calls, each on the subgraph of the edges earlier calls left undecided,
   with ids mapped back.  Returns the bundle, the rejected edges, the
   orientation tail per input edge and whether every call's views
   agreed. *)
let subgraph_bundle ~prng ~graph ~p ~k ~t =
  let m = Graph.m graph in
  let undecided = Array.make m true and tail = Array.make m (-1) in
  let bundle = ref [] and rejected = ref [] and agree = ref true in
  for _ = 1 to t do
    let ids = List.filter (fun e -> undecided.(e)) (List.init m Fun.id) in
    let idx = Array.of_list ids in
    let r =
      Spanner.run ~prng ~graph:(Graph.sub_edges graph ids)
        ~p:(Array.map (fun e -> p.(e)) idx) ~k ()
    in
    agree := !agree && r.Spanner.views_agree;
    List.iteri
      (fun pos e ->
        undecided.(idx.(e)) <- false;
        bundle := idx.(e) :: !bundle;
        tail.(idx.(e)) <- fst r.Spanner.orientation.(pos))
      r.Spanner.fplus;
    List.iter
      (fun e ->
        undecided.(idx.(e)) <- false;
        rejected := idx.(e) :: !rejected)
      r.Spanner.fminus
  done;
  (List.sort compare !bundle, List.sort compare !rejected, tail, !agree)

(* A live mask means the same as a subgraph: the bundle over the edge
   state equals the subgraph reference edge for edge, orientation
   included. *)
let prop_live_mask_is_subgraph =
  QCheck.Test.make ~count:40 ~name:"bundle over a live mask = subgraph bundle"
    QCheck.(
      quad (int_range 1 10_000) (int_range 0 3) (int_range 1 4) (int_range 1 3))
    (fun (seed, p_kind, k, t) ->
      let draw = Prng.create seed in
      let graph =
        Gen.erdos_renyi_connected draw ~n:(8 + (seed mod 25)) ~p:0.3 ~w_max:4
      in
      let p =
        Array.init (Graph.m graph) (fun _ ->
            match p_kind with
            | 0 -> 0.0
            | 1 -> 0.1
            | 2 -> 1.0 -. Prng.float draw
            | _ -> 1.0)
      in
      let st = Spanner.state ~graph ~p in
      let b = Bundle.run ~prng:(Prng.create (seed + 1)) ~k ~t st in
      let bundle, rejected, tail, agree =
        subgraph_bundle ~prng:(Prng.create (seed + 1)) ~graph ~p ~k ~t
      in
      agree && b.Bundle.bundle = bundle && b.Bundle.rejected = rejected
      && st.Spanner.tail = tail)

let suites =
  [
    ( "spanner.deterministic",
      [
        Alcotest.test_case "no rejections when p=1" `Quick test_deterministic_no_rejections;
        Alcotest.test_case "stretch bound" `Slow test_stretch_bound_deterministic;
        Alcotest.test_case "k=1 keeps all" `Quick test_k1_takes_all_edges;
        Alcotest.test_case "size bound" `Quick test_spanner_size_reasonable;
        Alcotest.test_case "orientation" `Quick test_orientation_covers_fplus;
        Alcotest.test_case "out-degree" `Quick test_out_degree_bounded;
        Alcotest.test_case "rounds charged" `Quick test_rounds_charged;
        Alcotest.test_case "rejects bad inputs" `Quick test_rejects_bad_inputs;
        Alcotest.test_case "cluster ids valid" `Quick test_cluster_ids_are_vertices;
        Alcotest.test_case "k=1 singleton clusters" `Quick test_k1_singleton_clusters;
        Alcotest.test_case "phase breakdown labels" `Quick test_phase_breakdown_labels;
      ] );
    ( "spanner.probabilistic",
      [
        Alcotest.test_case "stretch bound" `Slow test_stretch_bound_probabilistic;
        Alcotest.test_case "coupling with p=1 rerun" `Slow
          test_coupling_with_deterministic_rerun;
        Alcotest.test_case "p=0 rejects" `Quick test_p_zero_rejects_everything_tried;
        Alcotest.test_case "acceptance tracks p" `Slow test_acceptance_rate_tracks_p;
      ] );
    ( "spanner.bundle",
      [
        Alcotest.test_case "partitions" `Quick test_bundle_partitions;
        Alcotest.test_case "connectivity" `Quick test_bundle_preserves_connectivity;
        Alcotest.test_case "stretch" `Quick test_bundle_first_spanner_stretch;
        Alcotest.test_case "grows with t" `Quick test_bundle_grows_with_t;
        QCheck_alcotest.to_alcotest prop_live_mask_is_subgraph;
      ] );
  ]
