(* The per-layer metric catalogue (names and units as in BENCHMARK.json)
   and the side table in which traced operations record per-call values
   that no span carries (kappa, iteration counts, kept edges, ...). *)

let catalogue =
  [
    ("sparsifier.run_s", "s");
    ("sparsifier.rounds", "rounds");
    ("sparsifier.bits", "bits");
    ("spanner.rounds", "rounds");
    ("sparsifier.kept_ratio", "ratio");
    ("sparsifier.minor_mwords", "Mwords");
    ("laplacian.preprocess_s", "s");
    ("laplacian.preprocess_minor_mwords", "Mwords");
    ("laplacian.kappa", "ratio");
    ("laplacian.iterations", "count");
    ("laplacian.query_s", "s");
    ("service.create_s", "s");
    ("service.solve_many_s", "s");
    ("service.update_s", "s");
    ("service.update_rounds", "rounds");
    ("service.cache_hit_ratio", "ratio");
    ("serve.handle_s", "s");
    ("serve.tick_s", "s");
    ("serve.batch_occupancy", "count");
    ("serve.queue_wait_batches", "count");
    ("serve.proto_encode_s", "s");
    ("serve.proto_decode_s", "s");
    ("lp.ipm_iterations", "count");
    ("lp.normal_solves", "count");
    ("lp.normal_solve_s", "s");
    ("lp.ipm_self_s", "s");
    ("flow.prepare_s", "s");
    ("flow.baseline_s", "s");
    ("net.supersteps", "count");
    ("net.vertex_rounds_per_s", "1/s");
    ("net.retransmit_rounds", "rounds");
    ("dist.sssp_s", "s");
    ("dist.bfs_s", "s");
    ("gc.minor_mwords_per_op", "Mwords");
    ("gc.major_collections_per_op", "count");
    ("trace.overhead", "ratio");
  ]

(* Every catalogue metric, in catalogue order; a layer the workload does
   not reach reads 0. *)
let complete values =
  List.map
    (fun (name, unit) ->
      let value = match List.assoc_opt name values with Some v -> v | None -> 0.0 in
      Common.m name unit value)
    catalogue

let recorded : (string, float list) Hashtbl.t = Hashtbl.create 16

let record name v =
  let old = Option.value (Hashtbl.find_opt recorded name) ~default:[] in
  Hashtbl.replace recorded name (v :: old)

let mean_of name = Common.mean (Option.value (Hashtbl.find_opt recorded name) ~default:[])

(* Mean of [f] over the spans called [name]. *)
let span_mean f name ns = Common.mean (List.map f (Common.named name ns))
