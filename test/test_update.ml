(* First-class graph mutation: Delta normalization, Graph.apply, the exact
   fingerprint patch algebra, incremental sketch updates, and patching
   prepared handles in the cache. *)

open Lbcc_util
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Vec = Lbcc_linalg.Vec
module Sparsify = Lbcc_sparsifier.Sparsify
module Certify = Lbcc_laplacian.Certify
module Exact = Lbcc_laplacian.Exact
module Fingerprint = Lbcc_service.Fingerprint
module Prepared = Lbcc_service.Prepared
module Ctx = Lbcc_service.Ctx
module Cache = Lbcc_service.Cache

let edge u v w = { Graph.u; v; w }

let test_graph seed =
  Gen.erdos_renyi_connected (Prng.create seed) ~n:24 ~p:0.3 ~w_max:8

(* ------------------------------------------------------------------ *)
(* Delta normal form                                                   *)

let test_delta_normal_form () =
  let d =
    Graph.Delta.of_ops
      [
        Graph.Delta.Insert (edge 5 2 1.0);
        Graph.Delta.Reweight (3, 4.0);
        Graph.Delta.Insert (edge 1 7 2.0);
        Graph.Delta.Delete 9;
        Graph.Delta.Reweight (3, 6.0);
      ]
  in
  let ins = Graph.Delta.inserts d in
  Alcotest.(check int) "two inserts" 2 (Array.length ins);
  Alcotest.(check bool)
    "inserts canonically oriented and sorted" true
    (ins.(0).Graph.u = 1 && ins.(0).Graph.v = 7 && ins.(1).Graph.u = 2
    && ins.(1).Graph.v = 5);
  Alcotest.(check bool)
    "last reweight wins" true
    (Graph.Delta.reweights d = [| (3, 6.0) |]);
  Alcotest.(check bool) "delete kept" true (Graph.Delta.deletes d = [| 9 |]);
  Alcotest.(check int) "size counts normalized ops" 4 (Graph.Delta.size d);
  Alcotest.(check int) "max_id" 9 (Graph.Delta.max_id d);
  (* Same mutation written in a different order normalizes identically. *)
  let d' =
    Graph.Delta.of_ops
      [
        Graph.Delta.Delete 9;
        Graph.Delta.Insert (edge 1 7 2.0);
        Graph.Delta.Reweight (3, 6.0);
        Graph.Delta.Insert (edge 2 5 1.0);
      ]
  in
  Alcotest.(check bool) "canonical form is order-independent" true (d = d')

let test_delta_last_op_wins_delete () =
  let d =
    Graph.Delta.of_ops
      [ Graph.Delta.Reweight (4, 2.0); Graph.Delta.Delete 4 ]
  in
  Alcotest.(check bool) "delete shadows reweight" true
    (Graph.Delta.deletes d = [| 4 |] && Graph.Delta.reweights d = [||])

let test_delta_rejects_invalid () =
  let raises ops =
    match Graph.Delta.of_ops ops with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "self-loop insert" true
    (raises [ Graph.Delta.Insert (edge 3 3 1.0) ]);
  Alcotest.(check bool) "non-positive weight" true
    (raises [ Graph.Delta.Insert (edge 0 1 0.0) ]);
  Alcotest.(check bool) "non-finite weight" true
    (raises [ Graph.Delta.Insert (edge 0 1 Float.nan) ]);
  Alcotest.(check bool) "negative edge id" true
    (raises [ Graph.Delta.Delete (-1) ]);
  Alcotest.(check bool) "empty is empty" true
    (Graph.Delta.is_empty (Graph.Delta.of_ops []))

(* ------------------------------------------------------------------ *)
(* Graph.apply                                                         *)

let test_apply_edge_accounting () =
  let g = test_graph 3 in
  let m = Graph.m g in
  let d =
    Graph.Delta.of_ops
      [
        Graph.Delta.Delete 0;
        Graph.Delta.Delete (m - 1);
        Graph.Delta.Reweight (1, 3.5);
        Graph.Delta.Insert (edge 0 23 2.0);
      ]
  in
  let g', remap = Graph.apply_mapped g d in
  Alcotest.(check int) "m' = m - deletes + inserts" (m - 1) (Graph.m g');
  Alcotest.(check int) "vertex set unchanged" (Graph.n g) (Graph.n g');
  Alcotest.(check int) "deleted head remaps to -1" (-1) remap.(0);
  Alcotest.(check int) "deleted tail remaps to -1" (-1) remap.(m - 1);
  (* Every survivor keeps its endpoints, with the reweight applied. *)
  Array.iteri
    (fun id post ->
      if post >= 0 then begin
        let e = Graph.edges g |> fun es -> es.(id) in
        let e' = (Graph.edges g').(post) in
        Alcotest.(check bool)
          (Printf.sprintf "edge %d endpoints survive" id)
          true
          (e.Graph.u = e'.Graph.u && e.Graph.v = e'.Graph.v);
        let expect_w = if id = 1 then 3.5 else e.Graph.w in
        Alcotest.(check (float 0.0))
          (Printf.sprintf "edge %d weight" id)
          expect_w e'.Graph.w
      end)
    remap;
  (* The insert lands after every survivor. *)
  let last = (Graph.edges g').(Graph.m g' - 1) in
  Alcotest.(check bool) "insert appended" true
    (last.Graph.u = 0 && last.Graph.v = 23 && last.Graph.w = 2.0)

let test_apply_rejects_out_of_range () =
  let g = test_graph 3 in
  let raises d =
    match Graph.apply g d with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "edge id >= m" true
    (raises (Graph.Delta.of_ops [ Graph.Delta.Delete (Graph.m g) ]));
  Alcotest.(check bool) "insert endpoint >= n" true
    (raises
       (Graph.Delta.of_ops [ Graph.Delta.Insert (edge 0 (Graph.n g) 1.0) ]))

let test_delta_touched_marks_neighborhoods () =
  let g = test_graph 4 in
  let e0 = (Graph.edges g).(0) in
  let d =
    Graph.Delta.of_ops
      [ Graph.Delta.Delete 0; Graph.Delta.Insert (edge 2 9 1.0) ]
  in
  let touched = Graph.delta_touched g d in
  Alcotest.(check bool) "deleted edge endpoints touched" true
    (touched.(e0.Graph.u) && touched.(e0.Graph.v));
  Alcotest.(check bool) "insert endpoints touched" true
    (touched.(2) && touched.(9));
  Alcotest.(check int) "nothing else touched"
    (List.sort_uniq Int.compare [ e0.Graph.u; e0.Graph.v; 2; 9 ] |> List.length)
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 touched)

(* ------------------------------------------------------------------ *)
(* Fingerprint patch algebra (qcheck)                                  *)

(* apply fp (delta g d) = graph (Graph.apply g d), exactly, under random
   delta streams — the invariant that lets the prepared cache re-key
   patched handles where create_cached will look. *)
let qcheck_fingerprint_patch_exact =
  QCheck.Test.make ~count:60 ~name:"fingerprint patch = recompute"
    QCheck.(pair small_nat (int_bound 3))
    (fun (seed, streak) ->
      let prng = Prng.create (1 + seed) in
      let g = ref (test_graph (7 + (seed mod 5))) in
      let fp = ref (Fingerprint.graph !g) in
      let ok = ref true in
      for _ = 0 to streak do
        let d =
          Gen.delta ~w_max:8 prng ~graph:!g ~inserts:3 ~deletes:2 ~reweights:2
            ()
        in
        fp := Fingerprint.apply !fp (Fingerprint.delta !g d);
        g := Graph.apply !g d;
        if not (Fingerprint.equal !fp (Fingerprint.graph !g)) then ok := false;
        if Fingerprint.to_hex !fp <> Fingerprint.to_hex (Fingerprint.graph !g)
        then ok := false
      done;
      !ok)

let qcheck_fingerprint_delta_bounds =
  QCheck.Test.make ~count:30 ~name:"fingerprint delta validates edge ids"
    QCheck.small_nat
    (fun seed ->
      let g = test_graph (3 + (seed mod 4)) in
      let d = Graph.Delta.of_ops [ Graph.Delta.Delete (Graph.m g + seed) ] in
      match Fingerprint.delta g d with
      | exception Invalid_argument _ -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Incremental sketches                                                *)

let delta_stream ~graph ~seed k =
  let prng = Prng.create seed in
  Gen.delta ~w_max:8 ~connected:true prng ~graph ~inserts:k ~deletes:(k / 2)
    ~reweights:(k / 2) ()

let sketch_render sk =
  Graph.edges sk.Sparsify.sparsifier
  |> Array.to_list
  |> List.map (fun (e : Graph.edge) ->
         Printf.sprintf "%d-%d-%Lx" e.Graph.u e.Graph.v
           (Int64.bits_of_float e.Graph.w))
  |> String.concat ";"

let run_sketch_stream () =
  let g = test_graph 11 in
  let prng = Prng.create 5 in
  let sk = ref (Sparsify.sketch ~prng ~graph:g ~epsilon:0.5 ()) in
  for step = 1 to 3 do
    let d = delta_stream ~graph:!sk.Sparsify.base ~seed:(40 + step) 4 in
    sk := Sparsify.update ~prng !sk d
  done;
  !sk

let test_sketch_update_deterministic_across_domains () =
  let renders =
    List.map
      (fun d ->
        Pool.set_default_domains d;
        sketch_render (run_sketch_stream ()))
      [ 1; 2; 4 ]
  in
  Pool.set_default_domains 1;
  match renders with
  | [ r1; r2; r4 ] ->
      Alcotest.(check string) "1 = 2 domains" r1 r2;
      Alcotest.(check string) "1 = 4 domains" r1 r4
  | _ -> assert false

let test_sketch_update_certifies () =
  let sk = run_sketch_stream () in
  Alcotest.(check int) "three generations" 3 sk.Sparsify.generation;
  let cert =
    Certify.bound (Exact.factor sk.Sparsify.base)
      (Exact.factor sk.Sparsify.sparsifier)
  in
  (* KPPS composition: each generation may compound the per-step 0.5. *)
  let budget = (1.5 ** 4.0) -. 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "eps %.3f within composed budget %.3f"
       cert.Certify.epsilon_achieved budget)
    true
    (cert.Certify.epsilon_achieved <= budget);
  Alcotest.(check bool) "base stays connected" true
    (Graph.is_connected sk.Sparsify.base)

let test_sketch_empty_delta_noop () =
  let g = test_graph 11 in
  let prng = Prng.create 5 in
  let sk = Sparsify.sketch ~prng ~graph:g ~epsilon:0.5 () in
  let sk' = Sparsify.update ~prng sk (Graph.Delta.of_ops []) in
  Alcotest.(check int) "no rounds charged" 0 sk'.Sparsify.last_rounds;
  Alcotest.(check string) "sketch unchanged" (sketch_render sk)
    (sketch_render sk')

(* ------------------------------------------------------------------ *)
(* Prepared-handle patching                                            *)

let solutions_render qs =
  String.concat ";"
    (List.map
       (fun (q : Prepared.query_result) ->
         String.concat ","
           (List.map
              (fun f -> Printf.sprintf "%Lx" (Int64.bits_of_float f))
              (Array.to_list q.Prepared.solution)))
       qs)

let query_rhs n =
  let prng = Prng.create 77 in
  List.init 3 (fun _ ->
      Vec.mean_center (Vec.init n (fun _ -> Prng.gaussian prng)))

let test_prepared_patch_rekeys_cache () =
  let g = test_graph 13 in
  let cache = Cache.create ~capacity:4 () in
  let h, hit0 = Prepared.create_cached ~cache ~ctx:(Ctx.make ~seed:5 ()) g in
  Alcotest.(check bool) "first create is a miss" false hit0;
  let d = delta_stream ~graph:g ~seed:91 4 in
  let h' = Prepared.update_cached ~cache h d in
  let g' = Graph.apply g d in
  Alcotest.(check bool) "patched handle serves the mutated graph" true
    (Prepared.fingerprint_hex h' = Fingerprint.to_hex (Fingerprint.graph g'));
  Alcotest.(check int) "generation bumped" 1 (Prepared.generation h');
  (* Patch-in-place, not insert-alongside: the cache still holds exactly
     one entry for this lineage... *)
  let st = Cache.stats cache in
  Alcotest.(check int) "old key removed, new key added" 1 st.Cache.size;
  (* ...and a fresh prepare of the mutated graph finds the patched handle
     (same key create_cached builds), rather than rebuilding cold. *)
  let h'', hit = Prepared.create_cached ~cache ~ctx:(Ctx.make ~seed:5 ()) g' in
  Alcotest.(check bool) "re-prepare of mutated graph hits" true hit;
  Alcotest.(check int) "the hit IS the patched handle" 1
    (Prepared.generation h'');
  (* The pre-mutation key is dead: preparing the old graph misses. *)
  let _, old_hit = Prepared.create_cached ~cache ~ctx:(Ctx.make ~seed:5 ()) g in
  Alcotest.(check bool) "old graph key is gone" false old_hit

(* Patch-vs-invalidate equivalence: a patched handle answers queries with
   the accuracy contract of a cold rebuild, deterministically at every
   domain count.  (The sketches differ by construction — incremental
   pass-through vs full re-sample — so equivalence is the solver contract,
   not bit-equality between the two handles.) *)
let test_prepared_patch_vs_invalidate () =
  let g = test_graph 13 in
  let d = delta_stream ~graph:g ~seed:91 4 in
  let g' = Graph.apply g d in
  let n = Graph.n g' in
  let eps = 1e-8 in
  let run_patched d_count =
    Pool.set_default_domains d_count;
    let cache = Cache.create ~capacity:4 () in
    let h, _ = Prepared.create_cached ~cache ~ctx:(Ctx.make ~seed:5 ()) g in
    let h' = Prepared.update_cached ~cache h d in
    let qs = Prepared.solve_many ~eps h' (query_rhs n) in
    (solutions_render qs, qs)
  in
  let r1, qs1 = run_patched 1 in
  let r2, _ = run_patched 2 in
  let r4, _ = run_patched 4 in
  Pool.set_default_domains 1;
  Alcotest.(check string) "patched solutions identical at 1/2 domains" r1 r2;
  Alcotest.(check string) "patched solutions identical at 1/4 domains" r1 r4;
  (* The invalidate path: throw the handle away, rebuild cold on g'. *)
  let cold = Prepared.create ~ctx:(Ctx.make ~seed:5 ()) g' in
  let qs_cold = Prepared.solve_many ~eps cold (query_rhs n) in
  List.iter2
    (fun (a : Prepared.query_result) (b : Prepared.query_result) ->
      Alcotest.(check bool)
        (Printf.sprintf "residuals within contract (%.2e vs %.2e)" a.residual
           b.residual)
        true
        (a.Prepared.residual < 1e-6 && b.Prepared.residual < 1e-6))
    qs1 qs_cold;
  (* Both paths charge prepare-phase rounds; the patch pays fewer. *)
  Alcotest.(check bool) "update rounds < cold rebuild rounds" true
    (let cache = Cache.create ~capacity:4 () in
     let h, _ = Prepared.create_cached ~cache ~ctx:(Ctx.make ~seed:5 ()) g in
     let h' = Prepared.update_cached ~cache h d in
     Prepared.preprocessing_rounds h' < Prepared.preprocessing_rounds cold)

let suites =
  [
    ( "update.delta",
      [
        Alcotest.test_case "normal form" `Quick test_delta_normal_form;
        Alcotest.test_case "last op wins" `Quick test_delta_last_op_wins_delete;
        Alcotest.test_case "rejects invalid" `Quick test_delta_rejects_invalid;
      ] );
    ( "update.apply",
      [
        Alcotest.test_case "edge accounting" `Quick test_apply_edge_accounting;
        Alcotest.test_case "out of range" `Quick test_apply_rejects_out_of_range;
        Alcotest.test_case "touched neighborhoods" `Quick
          test_delta_touched_marks_neighborhoods;
      ] );
    ( "update.fingerprint",
      [
        QCheck_alcotest.to_alcotest qcheck_fingerprint_patch_exact;
        QCheck_alcotest.to_alcotest qcheck_fingerprint_delta_bounds;
      ] );
    ( "update.sketch",
      [
        Alcotest.test_case "deterministic across domains" `Quick
          test_sketch_update_deterministic_across_domains;
        Alcotest.test_case "certifies" `Quick test_sketch_update_certifies;
        Alcotest.test_case "empty delta no-op" `Quick
          test_sketch_empty_delta_noop;
      ] );
    ( "update.prepared",
      [
        Alcotest.test_case "patch re-keys cache" `Quick
          test_prepared_patch_rekeys_cache;
        Alcotest.test_case "patch vs invalidate" `Quick
          test_prepared_patch_vs_invalidate;
      ] );
  ]
