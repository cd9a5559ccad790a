(* Maintaining a sparsifier — and a prepared solver — of a mutating graph.

   Earlier revisions of this demo re-sparsified [sketch ∪ new batch] by
   hand, following the Kyng–Pachocki–Peng–Sachdeva resparsification recipe
   behind Theorem 3.4 (sparsifying a union of sparsifiers stays spectrally
   faithful, errors composing multiplicatively).  The first-class mutation
   API packages that recipe end to end:

   - a [Graph.Delta] names each batch of inserts/deletes/reweights;
   - the incremental [Sparsify.update] re-samples only the delta's vertex
     neighborhoods, passing untouched sketch edges through verbatim;
   - [Prepared.update_cached] patches a hot prepared handle in place —
     fingerprint patched in O(|delta|), sketch updated incrementally,
     preconditioner refactored — and re-keys the handle cache, so the next
     prepare of the mutated graph is a hit instead of a cold rebuild.

   After each delta the patched handle answers a small batch of Laplacian
   queries; the certificate column verifies the sketch against the whole
   accumulated graph, exactly as the static pipeline would.

   Run with:  dune exec examples/streaming_resparsify.exe *)

module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Vec = Lbcc_linalg.Vec
module Sparsify = Lbcc_sparsifier.Sparsify
module Certify = Lbcc_laplacian.Certify
module Exact = Lbcc_laplacian.Exact
module Cache = Lbcc_service.Cache
module Prepared = Lbcc_service.Prepared
module Ctx = Lbcc_service.Ctx
open Lbcc_util

let () =
  let n = 96 in
  let batches = 6 in
  let seed = 5 in
  let g0 = Gen.random_geometric (Prng.create 11) ~n ~radius:0.25 ~w_max:4 in
  Printf.printf
    "mutating a %d-vertex geometric graph (m=%d) through %d Graph.Delta \
     batches\n\n"
    n (Graph.m g0) batches;

  (* Each generation answers this many Laplacian queries through the (same,
     patched) prepared handle. *)
  let queries_per_batch = 4 in
  let query_rhs =
    let qprng = Prng.create 7 in
    List.init queries_per_batch (fun _ ->
        Vec.mean_center (Vec.init n (fun _ -> Prng.gaussian qprng)))
  in

  let cache = Cache.create ~capacity:4 () in
  let ctx = Ctx.make ~seed () in
  let h = ref (fst (Prepared.create_cached ~cache ~ctx g0)) in
  let create_rounds = Prepared.preprocessing_rounds !h in
  Printf.printf "prepare: %d rounds (paid once; updates below patch this \
                 handle)\n\n" create_rounds;
  Printf.printf "%5s | %5s %7s %8s | %9s %9s | %9s %9s\n" "gen" "|d|" "m"
    "sketch m" "upd rnds" "vs create" "eps(acc)" "residual";

  let dprng = Prng.create 2024 in
  for _b = 1 to batches do
    (* A connectivity-preserving random delta against the accumulated
       graph: mostly inserts, a few deletes and reweights. *)
    let d =
      Gen.delta ~w_max:4 ~connected:true dprng ~graph:(Prepared.graph !h)
        ~inserts:12 ~deletes:2 ~reweights:2 ()
    in
    (* Patch the handle in place: O(|delta|) fingerprint patch, incremental
       sketch update, refactor — and the cache is re-keyed under the new
       fingerprint. *)
    h := Prepared.update_cached ~cache !h d;
    let sk = Prepared.sketch !h in
    let eps =
      (Certify.bound (Exact.factor sk.Sparsify.base)
         (Exact.factor sk.Sparsify.sparsifier))
        .Certify.epsilon_achieved
    in
    let qs = Prepared.solve_many !h query_rhs in
    let worst =
      List.fold_left
        (fun a (q : Prepared.query_result) -> Float.max a q.Prepared.residual)
        0.0 qs
    in
    Printf.printf "%5d | %5d %7d %8d | %9d %8.2fx | %9.3f %9.2e\n"
      (Prepared.generation !h) (Graph.Delta.size d)
      (Graph.m (Prepared.graph !h))
      (Graph.m sk.Sparsify.sparsifier)
      (Prepared.preprocessing_rounds !h)
      (float_of_int (Prepared.preprocessing_rounds !h)
      /. float_of_int (Stdlib.max 1 create_rounds))
      eps worst
  done;

  (* The patched handle sits exactly where a fresh prepare of the mutated
     graph looks: this lookup is a cache hit, not a cold rebuild. *)
  let _, hit = Prepared.create_cached ~cache ~ctx (Prepared.graph !h) in
  Printf.printf
    "\nre-preparing the accumulated graph: cache %s (the patched handle \
     was\nre-keyed under the new fingerprint)\n"
    (if hit then "hit" else "miss");
  Printf.printf
    "the eps column certifies each generation's sketch against the whole\n\
     accumulated graph (KPPS: pass-through errors compose multiplicatively\n\
     across generations; a full rebuild would cost ~%d rounds every batch).\n"
    create_rounds
