(* Prepared-operator service layer: fingerprints, the LRU handle cache,
   prepare-once/query-many round accounting, and the batched multi-RHS
   path's bit-identity with sequential solves at 1/2/4 domains. *)

open Lbcc_util
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Vec = Lbcc_linalg.Vec
module Rounds = Lbcc_net.Rounds
module Solver = Lbcc_laplacian.Solver
module Ctx = Lbcc_service.Ctx
module Fingerprint = Lbcc_service.Fingerprint
module Cache = Lbcc_service.Cache
module Prepared = Lbcc_service.Prepared
module Lbcc = Lbcc_core.Lbcc

let test_graph ?(seed = 11) ?(n = 24) () =
  Gen.erdos_renyi_connected (Prng.create seed) ~n ~p:0.3 ~w_max:5

let rhs_batch ~seed ~nv k =
  let prng = Prng.create seed in
  List.init k (fun _ ->
      Vec.mean_center (Vec.init nv (fun _ -> Prng.gaussian prng)))

let vec_bits v = Array.map Int64.bits_of_float v

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                         *)

let test_fingerprint_structural () =
  let g1 = test_graph () in
  let g2 = test_graph () in
  Alcotest.(check bool) "identical rebuild, same fingerprint" true
    (Fingerprint.graph g1 = Fingerprint.graph g2);
  let edges = Graph.edges g1 in
  let mutated =
    Array.mapi
      (fun i (e : Graph.edge) ->
        if i = 0 then { e with Graph.w = e.Graph.w +. 1.0 } else e)
      edges
  in
  let g3 = Graph.create ~n:(Graph.n g1) (Array.to_list mutated) in
  Alcotest.(check bool) "reweighting one edge changes it" true
    (Fingerprint.graph g1 <> Fingerprint.graph g3);
  Alcotest.(check int) "hex digest is 16 chars" 16
    (String.length (Fingerprint.to_hex (Fingerprint.graph g1)))

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Cache.find c "a");
  (* "b" is now least recently used; inserting "c" evicts it. *)
  Cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Cache.find c "c");
  let v, hit = Cache.find_or_add c "d" (fun () -> 4) in
  Alcotest.(check bool) "miss builds" true ((v, hit) = (4, false));
  let v, hit = Cache.find_or_add c "d" (fun () -> 99) in
  Alcotest.(check bool) "hit returns cached" true ((v, hit) = (4, true));
  let st = Cache.stats c in
  Alcotest.(check int) "size tracks" 2 st.Cache.size;
  Alcotest.(check int) "evictions counted" 2 st.Cache.evictions;
  Alcotest.(check bool) "hits and misses counted" true
    (st.Cache.hits > 0 && st.Cache.misses > 0)

let test_cache_zero_capacity () =
  let c = Cache.create ~capacity:0 () in
  Cache.add c "a" 1;
  Alcotest.(check (option int)) "nothing retained" None (Cache.find c "a");
  let _, hit = Cache.find_or_add c "a" (fun () -> 2) in
  Alcotest.(check bool) "always a miss" false hit

let test_create_cached_fingerprint_keyed () =
  let cache = Cache.create ~capacity:4 () in
  let g = test_graph () in
  let p1, hit1 = Prepared.create_cached ~cache ~ctx:(Ctx.make ~seed:3 ()) g in
  Alcotest.(check bool) "first create misses" false hit1;
  (* A structurally identical rebuild hits even though it is a different
     heap value. *)
  let p2, hit2 =
    Prepared.create_cached ~cache ~ctx:(Ctx.make ~seed:3 ()) (test_graph ())
  in
  Alcotest.(check bool) "identical graph hits" true hit2;
  Alcotest.(check bool) "same handle returned" true (p1 == p2);
  (* Different seed, different preprocessing: miss. *)
  let _, hit3 = Prepared.create_cached ~cache ~ctx:(Ctx.make ~seed:4 ()) g in
  Alcotest.(check bool) "seed is part of the key" false hit3;
  (* Mutating the graph invalidates. *)
  let edges = Array.to_list (Graph.edges g) in
  let mutated =
    match edges with
    | (e : Graph.edge) :: rest -> { e with Graph.w = e.Graph.w +. 1.0 } :: rest
    | [] -> assert false
  in
  let _, hit4 =
    Prepared.create_cached ~cache ~ctx:(Ctx.make ~seed:3 ())
      (Graph.create ~n:(Graph.n g) mutated)
  in
  Alcotest.(check bool) "mutation invalidates" false hit4

(* ------------------------------------------------------------------ *)
(* Prepare-once / query-many accounting                                *)

(* The vertex-internal factor and certify steps show up as zero-round
   children of the prepare span and leave the round breakdown as an
   untraced run has it. *)
let test_prepare_spans () =
  let g = test_graph () in
  let tracer = Lbcc_obs.Trace.create () in
  let traced = Prepared.create ~ctx:(Ctx.make ~seed:7 ~tracer ()) g in
  let plain = Prepared.create ~ctx:(Ctx.make ~seed:7 ()) g in
  let rec find name (s : Lbcc_obs.Trace.span) =
    if s.Lbcc_obs.Trace.name = name then Some s
    else List.find_map (find name) s.Lbcc_obs.Trace.children
  in
  let prepare =
    match find "prepare" (Lbcc_obs.Trace.root tracer) with
    | Some s -> s
    | None -> Alcotest.fail "no prepare span"
  in
  List.iter
    (fun name ->
      match
        List.find_opt
          (fun c -> c.Lbcc_obs.Trace.name = name)
          prepare.Lbcc_obs.Trace.children
      with
      | Some s -> Alcotest.(check int) (name ^ " rounds") 0 s.Lbcc_obs.Trace.rounds
      | None -> Alcotest.failf "no %s child under prepare" name)
    [ "factor"; "certify" ];
  Alcotest.(check (list (triple string int int)))
    "breakdown unchanged by tracing" (Prepared.prepare_breakdown plain)
    (Prepared.prepare_breakdown traced)

let test_prepare_once_query_rounds () =
  let g = test_graph () in
  let p = Prepared.create ~ctx:(Ctx.make ~seed:7 ()) g in
  let prep = Prepared.preprocessing_rounds p in
  Alcotest.(check bool) "preprocessing charged" true (prep > 0);
  Alcotest.(check int) "no queries yet" 0 (Prepared.queries p);
  Alcotest.(check int) "breakdown sums to preprocessing" prep
    (List.fold_left (fun a (_, r, _) -> a + r) 0 (Prepared.prepare_breakdown p));
  (* Standalone Thm 1.3 query phase on an independently prepared solver:
     the per-query rounds of the handle must match it exactly. *)
  let standalone =
    let solver = Solver.preprocess ~prng:(Prng.create 7) ~graph:g () in
    let b = List.hd (rhs_batch ~seed:42 ~nv:(Graph.n g) 1) in
    (Solver.solve solver ~b ~eps:1e-8).Solver.rounds
  in
  let k = 5 in
  let qs =
    List.map
      (fun b -> Prepared.solve p ~b)
      (rhs_batch ~seed:42 ~nv:(Graph.n g) k)
  in
  List.iter
    (fun (q : Prepared.query_result) ->
      Alcotest.(check int) "query rounds match standalone query phase"
        standalone q.Prepared.rounds)
    qs;
  Alcotest.(check int) "k queries recorded" k (Prepared.queries p);
  Alcotest.(check int) "preprocessing not recharged" prep
    (Prepared.preprocessing_rounds p);
  Alcotest.(check int) "query rounds accumulate" (k * standalone)
    (Prepared.query_rounds p);
  (* Preprocessing is charged under prepare/* labels only. *)
  let labels = List.map (fun (l, _, _) -> l) (Prepared.prepare_breakdown p) in
  Alcotest.(check bool) "prepare labels present" true
    (labels <> []
    && List.for_all
         (fun l -> String.length l >= 8 && String.sub l 0 8 = "prepare/")
         labels);
  (* Amortization: rounds/query decreases as more queries are served. *)
  let amortized_k = Prepared.amortized_rounds_per_query p in
  let _ = Prepared.solve p ~b:(List.hd (rhs_batch ~seed:43 ~nv:(Graph.n g) 1)) in
  Alcotest.(check bool) "amortized cost strictly decreasing" true
    (Prepared.amortized_rounds_per_query p < amortized_k)

let test_mirror_accountant_matches () =
  let g = test_graph () in
  let p = Prepared.create ~ctx:(Ctx.make ~seed:7 ()) g in
  let caller = Rounds.create ~bandwidth:8 in
  let b = List.hd (rhs_batch ~seed:42 ~nv:(Graph.n g) 1) in
  let q = Prepared.solve ~accountant:caller p ~b in
  Alcotest.(check int) "caller sees exactly the query rounds"
    q.Prepared.rounds (Rounds.rounds caller);
  Alcotest.(check (list (pair string int))) "same label path as the handle"
    [ ("query/laplacian-matvec", q.Prepared.rounds) ]
    (Rounds.breakdown caller)

(* ------------------------------------------------------------------ *)
(* solve_many: bitwise identity with sequential solves, per domains    *)

let solve_many_vs_sequential domains () =
  Pool.set_default_domains domains;
  Fun.protect
    ~finally:(fun () -> Pool.set_default_domains 1)
    (fun () ->
      let g = test_graph ~seed:13 ~n:30 () in
      let k = 8 in
      let bs = rhs_batch ~seed:99 ~nv:(Graph.n g) k in
      let batch_h = Prepared.create ~ctx:(Ctx.make ~seed:5 ()) g in
      let seq_h = Prepared.create ~ctx:(Ctx.make ~seed:5 ()) g in
      let batch_acc = Rounds.create ~bandwidth:8
      and seq_acc = Rounds.create ~bandwidth:8 in
      let batched = Prepared.solve_many ~accountant:batch_acc batch_h bs in
      let sequential =
        List.map (fun b -> Prepared.solve ~accountant:seq_acc seq_h ~b) bs
      in
      List.iteri
        (fun i ((bq : Prepared.query_result), (sq : Prepared.query_result)) ->
          Alcotest.(check bool)
            (Printf.sprintf "solution %d bit-identical" i)
            true
            (vec_bits bq.Prepared.solution = vec_bits sq.Prepared.solution);
          Alcotest.(check int)
            (Printf.sprintf "rounds %d equal" i)
            sq.Prepared.rounds bq.Prepared.rounds)
        (List.combine batched sequential);
      Alcotest.(check bool) "accountant state identical" true
        (Rounds.breakdown batch_acc = Rounds.breakdown seq_acc
        && Rounds.bits_breakdown batch_acc = Rounds.bits_breakdown seq_acc
        && Prepared.query_rounds batch_h = Prepared.query_rounds seq_h);
      Alcotest.(check int) "queries equal" (Prepared.queries seq_h)
        (Prepared.queries batch_h))

(* ------------------------------------------------------------------ *)
(* Front door integration                                              *)

let test_front_door_cache_effect () =
  (* A graph no other test uses, so the first call is a shared-cache miss. *)
  let g = test_graph ~seed:20230 ~n:26 () in
  let b = List.hd (rhs_batch ~seed:7 ~nv:(Graph.n g) 1) in
  let r1 = Lbcc.solve_laplacian ~ctx:(Lbcc.Ctx.make ~seed:31 ()) g ~b in
  let r2 = Lbcc.solve_laplacian ~ctx:(Lbcc.Ctx.make ~seed:31 ()) g ~b in
  Alcotest.(check bool) "same solution bits" true
    (vec_bits r1.Lbcc.solution = vec_bits r2.Lbcc.solution);
  Alcotest.(check int) "preprocessing_rounds stable"
    r1.Lbcc.preprocessing_rounds r2.Lbcc.preprocessing_rounds;
  Alcotest.(check int) "first call pays prepare + query"
    (r1.Lbcc.preprocessing_rounds + r1.Lbcc.solve_rounds)
    r1.Lbcc.rounds.Lbcc.total;
  Alcotest.(check int) "cached call pays only the query" r2.Lbcc.solve_rounds
    r2.Lbcc.rounds.Lbcc.total;
  List.iter
    (fun (r : Lbcc.laplacian_result) ->
      Alcotest.(check int) "breakdown sums to total" r.Lbcc.rounds.Lbcc.total
        (List.fold_left (fun a (_, x) -> a + x) 0 r.Lbcc.rounds.Lbcc.breakdown))
    [ r1; r2 ]

let test_effective_resistance_reports_rounds () =
  let g = test_graph ~seed:20231 ~n:22 () in
  let r = Lbcc.effective_resistance ~ctx:(Lbcc.Ctx.make ~seed:17 ()) g ~s:1 ~t:9 in
  Alcotest.(check bool) "resistance positive" true (r.Lbcc.resistance > 0.0);
  Alcotest.(check bool) "query rounds reported" true (r.Lbcc.query_rounds > 0);
  Alcotest.(check bool) "preprocessing reported" true
    (r.Lbcc.preprocessing_rounds > 0);
  Alcotest.(check bool) "report non-empty" true
    (r.Lbcc.rounds.Lbcc.total > 0)

let test_mcmf_single_prepare_phase () =
  let net =
    Lbcc_flow.Network.random (Prng.create 7) ~n:6 ~density:0.4 ~max_capacity:3
      ~max_cost:2
  in
  let r = Lbcc.min_cost_max_flow ~ctx:(Lbcc.Ctx.make ~seed:3 ()) net in
  let prepare_labels, query_labels =
    List.partition
      (fun (l, _) ->
        List.exists
          (fun part -> part = "prepare")
          (String.split_on_char '/' l))
      (List.filter
         (fun (l, _) -> String.length l >= 5 && String.sub l 0 5 = "mcmf/")
         r.Lbcc.rounds.Lbcc.breakdown)
  in
  (* One prepare/* phase for the whole run... *)
  Alcotest.(check (list (pair string bool))) "single prepare label"
    [ ("mcmf/prepare/flow-instance", true) ]
    (List.map (fun (l, r) -> (l, r > 0)) prepare_labels);
  (* ...and the per-iteration solves under query/*. *)
  Alcotest.(check bool) "normal solves labeled query/*" true
    (List.mem_assoc "mcmf/ipm/query/normal-solve" query_labels)

let suites =
  [
    ( "service.fingerprint",
      [ Alcotest.test_case "structural" `Quick test_fingerprint_structural ] );
    ( "service.cache",
      [
        Alcotest.test_case "lru eviction + stats" `Quick test_cache_lru;
        Alcotest.test_case "zero capacity" `Quick test_cache_zero_capacity;
        Alcotest.test_case "fingerprint keyed" `Quick
          test_create_cached_fingerprint_keyed;
      ] );
    ( "service.prepared",
      [
        Alcotest.test_case "prepare factor/certify" `Quick
          test_prepare_spans;
        Alcotest.test_case "prepare once, query many" `Quick
          test_prepare_once_query_rounds;
        Alcotest.test_case "caller accountant mirror" `Quick
          test_mirror_accountant_matches;
        Alcotest.test_case "solve_many = sequential (1 domain)" `Quick
          (solve_many_vs_sequential 1);
        Alcotest.test_case "solve_many = sequential (2 domains)" `Quick
          (solve_many_vs_sequential 2);
        Alcotest.test_case "solve_many = sequential (4 domains)" `Quick
          (solve_many_vs_sequential 4);
      ] );
    ( "service.front_door",
      [
        Alcotest.test_case "solve_laplacian cache effect" `Quick
          test_front_door_cache_effect;
        Alcotest.test_case "effective_resistance rounds" `Quick
          test_effective_resistance_reports_rounds;
        Alcotest.test_case "mcmf single prepare phase" `Quick
          test_mcmf_single_prepare_phase;
      ] );
  ]
