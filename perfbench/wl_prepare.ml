(* prepare: the cold Theorem 1.3 path.  Each operation prepares a fresh
   handle for one graph (sparsify, factor, certify) and answers one query
   at eps = 1e-8.  A round holds 3 graphs for each n in 64, 96 and 128 with
   the default bundle size (H = G at these sizes) and 3 with t = 2, where
   H keeps roughly a quarter to a half of G's edges and kappa grows. *)

open Common
module Graph = Lbcc_graph.Graph
module Prepared = Lbcc_service.Prepared
module Ctx = Lbcc_service.Ctx
module Solver = Lbcc_laplacian.Solver
module Prng = Lbcc_util.Prng

let sizes = [ 64; 96; 128 ]
let bundles = [ None; Some 2 ]

(* Graphs per (n, t) cell: enough distinct inputs that a seed's figures
   do not hang on one graph. *)
let per_cell = 3
let eps = 1e-8

(* Relative residual allowed for an eps-accurate answer in the L_G norm:
   ||b - L y|| / ||b|| <= eps * sqrt(lambda_max / lambda_2) of L_G, which
   stays far below 100 on these dense graphs. *)
let residual_tol = 100.0 *. eps

let spanner_rounds h =
  List.fold_left
    (fun acc (label, rounds, _) ->
      let rec has i =
        i + 9 <= String.length label && (String.sub label i 9 = "/spanner/" || has (i + 1))
      in
      if has 0 then acc + rounds else acc)
    0 (Prepared.prepare_breakdown h)

let op ~instance ~n ~t =
  let prng = Prng.create instance in
  let g = Lbcc_graph.Gen.erdos_renyi_connected prng ~n ~p:0.3 ~w_max:8 in
  let b = zero_sum_rhs prng n in
  let og = to_oracle g in
  let run tracer =
    let ctx = Ctx.make ~seed:instance ?tracer:(Option.map (fun t -> t.tr) tracer) () in
    let h = span tracer "service.create" (fun () -> Prepared.create ~ctx ?t g) in
    let q = span tracer "service.solve" (fun () -> Prepared.solve ~eps h ~b) in
    let solver = Prepared.solver h in
    let hg = Solver.sparsifier solver in
    if tracer <> None then begin
      Layers.record "spanner.rounds" (float_of_int (spanner_rounds h));
      Layers.record "kept" (float_of_int (Graph.m hg) /. float_of_int (Graph.m g));
      Layers.record "kappa" (Solver.kappa solver);
      Layers.record "iterations" (float_of_int q.Prepared.iterations)
    end;
    fun () ->
      let rounds = Prepared.preprocessing_rounds h + q.Prepared.rounds
      and bits = Prepared.preprocessing_bits h + q.Prepared.bits in
      let r = Oracle.residual og ~b ~x:q.Prepared.solution in
      match Oracle.reweighted_subgraph ~g:og ~h:(to_oracle hg) with
      | Error why -> fail ~rounds ~bits ("sparsifier: " ^ why)
      | Ok () ->
          if r <= residual_tol then pass ~rounds ~bits
          else fail ~rounds ~bits (Printf.sprintf "residual %.3g > %.3g" r residual_tol)
  in
  let cls =
    Printf.sprintf "n=%d t=%s" n (match t with None -> "default" | Some t -> string_of_int t)
  in
  {
    Runner.label = Printf.sprintf "%s instance-seed=%d" cls instance;
    cls;
    known_fault = false;
    run;
  }

let build seed () =
  List.concat_map
    (fun n -> List.concat_map (fun t -> List.init per_cell (fun _ -> (n, t))) bundles)
    sizes
  |> List.mapi (fun i (n, t) -> op ~instance:((seed * 1000) + i) ~n ~t)
  |> Array.of_list

let layers ns _ =
  let open Layers in
  [
    ("sparsifier.run_s", span_mean wall "sparsify" ns);
    ("sparsifier.rounds", span_mean (fun n -> float_of_int n.rounds) "sparsify" ns);
    ("sparsifier.bits", span_mean (fun n -> float_of_int n.bits) "sparsify" ns);
    ("spanner.rounds", mean_of "spanner.rounds");
    ("sparsifier.kept_ratio", mean_of "kept");
    ("sparsifier.minor_mwords", span_mean (fun n -> n.words /. 1e6) "sparsify" ns);
    ("laplacian.preprocess_s", span_mean self_wall "prepare" ns);
    ( "laplacian.preprocess_minor_mwords",
      span_mean (fun n -> self_words n /. 1e6) "prepare" ns );
    ("laplacian.kappa", mean_of "kappa");
    ("laplacian.iterations", mean_of "iterations");
    ("laplacian.query_s", span_mean wall "query" ns);
    ("service.create_s", span_mean wall "service.create" ns);
  ]

(* Wall time of one round (18 operations) on the reference host, a 2-vCPU
   virtual machine on one lane; a 20-s run therefore does 2 rounds. *)
let round_s = 13.0

let main args = Runner.main ~args ~round_s ~build:(build args.seed) ~layers
