open Lbcc_util
module Vec = Lbcc_linalg.Vec
module Graph = Lbcc_graph.Graph
module Rounds = Lbcc_net.Rounds
module Model = Lbcc_net.Model
module Metrics = Lbcc_obs.Metrics
module Solver = Lbcc_laplacian.Solver
module Sparsify = Lbcc_sparsifier.Sparsify

type query_result = {
  solution : Vec.t;
  residual : float;
  iterations : int;
  rounds : int;
  bits : int;
}

type t = {
  graph : Graph.t;
  mutable ctx : Ctx.t; (* re-pointed at the caller's ctx on cache hits *)
  solver : Solver.t;
  sketch : Sparsify.sketch; (* incremental sparsifier state for [update] *)
  fingerprint : Fingerprint.t;
  key_seed : int; (* the seed the cache key was built with *)
  t_opt : int option;
  generation : int; (* number of deltas patched into this handle *)
  acc : Rounds.t; (* cumulative: one prepare/* group, then query/* *)
  prepare_rounds : int;
  prepare_bits : int;
  prepare_breakdown : (string * int * int) list;
  mutable queries : int;
  mutable query_rounds : int;
}

let zip3 acc =
  List.map2
    (fun (label, rounds) (_, bits) -> (label, rounds, bits))
    (Rounds.breakdown acc) (Rounds.bits_breakdown acc)

let create ?(ctx = Ctx.default) ?t graph =
  let n = Graph.n graph in
  let acc = Rounds.create ~bandwidth:(Model.bandwidth ~n) in
  Rounds.set_tracer acc ctx.Ctx.tracer;
  Metrics.inc ctx.Ctx.metrics "prepared.create";
  let prng = Prng.create ctx.Ctx.seed in
  let solver =
    Solver.preprocess ~accountant:acc ~phases:[ "prepare" ] ?t ~prng ~graph ()
  in
  let rounds = Rounds.rounds acc in
  Metrics.observe ctx.Ctx.metrics "prepared.prepare_rounds"
    (float_of_int rounds);
  let h = Solver.sparsifier solver in
  {
    graph;
    ctx;
    solver;
    sketch =
      {
        Sparsify.base = graph;
        sparsifier = h;
        epsilon = 0.5;
        generation = 0;
        resampled = Graph.m h;
        passed = 0;
        last_rounds = rounds;
        total_rounds = rounds;
      };
    fingerprint = Fingerprint.graph graph;
    key_seed = ctx.Ctx.seed;
    t_opt = t;
    generation = 0;
    acc;
    prepare_rounds = rounds;
    prepare_bits = Rounds.bits acc;
    prepare_breakdown = zip3 acc;
    queries = 0;
    query_rounds = 0;
  }

(* Charge recorded (label path, rounds, bits) entries onto [accountant]
   verbatim.  The paths are spelled out in full rather than replayed under a
   phase, so no duplicate trace span appears when the accountant shares the
   handle's tracer, and the per-label breakdown matches the handle's. *)
let replay accountant entries =
  List.iter
    (* Full label paths replayed as recorded; a phase wrapper here would
       double-prefix them (comment above). *)
    (* lbcc-lint: allow typ-phase-flow *)
    (fun (label, rounds, bits) -> Rounds.charge accountant ~bits ~label ~rounds)
    entries

(* Mirror one query's cost onto a caller's accountant as a single aggregate
   charge: every query-phase charge lives under this one label. *)
let mirror accountant (r : Solver.solve_result) =
  Option.iter
    (fun a ->
      replay a [ ("query/laplacian-matvec", r.Solver.rounds, r.Solver.bits) ])
    accountant

let to_query (r : Solver.solve_result) =
  {
    solution = r.Solver.solution;
    residual = r.Solver.residual;
    iterations = r.Solver.iterations;
    rounds = r.Solver.rounds;
    bits = r.Solver.bits;
  }

let bump t (r : Solver.solve_result) =
  t.queries <- t.queries + 1;
  t.query_rounds <- t.query_rounds + r.Solver.rounds;
  Metrics.inc t.ctx.Ctx.metrics "prepared.solve"

let solve ?accountant ?(eps = 1e-8) t ~b =
  let r = Solver.solve ~accountant:t.acc ~phases:[ "query" ] t.solver ~b ~eps in
  bump t r;
  mirror accountant r;
  to_query r

let solve_many ?accountant ?(eps = 1e-8) t bs =
  let bs = Array.of_list bs in
  let k = Array.length bs in
  if k = 0 then []
  else begin
    let results = Array.make k None in
    (* Compute phase: fan the right-hand sides out over the pool.  Each
       chunk gets its own workspace (the preconditioner scratch is not
       reentrant) and each solve runs against a private throwaway
       accountant, so lanes share only read-only state.  The chunk grid and
       the fixed Chebyshev iteration count make every solution bit-identical
       to its sequential counterpart. *)
    Pool.parallel_for (Pool.default ()) ~n:k (fun lo hi ->
        let ws = Solver.workspace t.solver in
        for i = lo to hi - 1 do
          results.(i) <-
            Some
              (Solver.solve ~phases:[ "query" ] ~workspace:ws t.solver
                 ~b:bs.(i) ~eps)
        done);
    (* Accounting phase: replay the per-query charges sequentially in list
       order, reproducing exactly the accountant state (and trace spans) of
       k single [solve] calls. *)
    let out =
      Array.to_list results
      |> List.map (fun r ->
             let r = Option.get r in
             Rounds.with_phase t.acc "query" (fun () ->
                 Rounds.charge t.acc ~bits:r.Solver.bits
                   ~label:"laplacian-matvec" ~rounds:r.Solver.rounds);
             bump t r;
             mirror accountant r;
             to_query r)
    in
    Metrics.observe t.ctx.Ctx.metrics "prepared.batch_size" (float_of_int k);
    out
  end

(* [accountant] stays for the front door's one-shot
   [Lbcc.effective_resistance], which reports the query's rounds. *)
(* lbcc-lint: allow typ-dead-option *)
let effective_resistance ?accountant t ~s ~t:target =
  let n = Graph.n t.graph in
  if s < 0 || s >= n || target < 0 || target >= n then
    invalid_arg "Prepared.effective_resistance: vertex out of range";
  let b = Vec.zeros n in
  b.(s) <- b.(s) +. 1.0;
  b.(target) <- b.(target) -. 1.0;
  let q = solve ?accountant ~eps:1e-10 t ~b in
  (q.solution.(s) -. q.solution.(target), q)

(* Cached creation ------------------------------------------------------ *)

let shared = lazy (Cache.create ~capacity:8 ())
let shared_cache () = Lazy.force shared

let key_of_fingerprint ~seed ?t fp =
  let opt = function Some v -> string_of_int v | None -> "-" in
  Printf.sprintf "%s|seed=%d|t=%s" (Fingerprint.to_hex fp) seed (opt t)

let own_key t = key_of_fingerprint ~seed:t.key_seed ?t:t.t_opt t.fingerprint

let create_cached ?cache ?(ctx = Ctx.default) graph =
  let cache = match cache with Some c -> c | None -> shared_cache () in
  let key = key_of_fingerprint ~seed:ctx.Ctx.seed (Fingerprint.graph graph) in
  let handle, hit =
    Cache.find_or_add cache key (fun () -> create ~ctx graph)
  in
  if hit then begin
    handle.ctx <- ctx;
    Rounds.set_tracer handle.acc ctx.Ctx.tracer;
    Metrics.inc ctx.Ctx.metrics "prepared.cache_hit"
  end
  else Metrics.inc ctx.Ctx.metrics "prepared.cache_miss";
  (handle, hit)

(* Incremental updates --------------------------------------------------- *)

let update ?accountant t delta =
  let ctx = t.ctx in
  let n = Graph.n t.graph in
  (* O(|delta|): patch the fingerprint before touching any edge arrays — the
     algebra guarantees it equals a from-scratch fingerprint of the new
     graph, so the patched handle re-keys exactly where a rebuilt one would
     land. *)
  let fingerprint = Fingerprint.apply t.fingerprint (Fingerprint.delta t.graph delta) in
  let acc = Rounds.create ~bandwidth:(Model.bandwidth ~n) in
  Rounds.set_tracer acc ctx.Ctx.tracer;
  Metrics.inc ctx.Ctx.metrics "prepared.update";
  let prng = Prng.create ctx.Ctx.seed in
  (* Charge only the incremental work under phase [update/*]: the delta
     announcement plus re-sparsification of the hit neighborhoods, then the
     (round-free, vertex-internal) factor + certify on the patched H. *)
  let sketch = Sparsify.update ~accountant:acc ~prng t.sketch delta in
  let solver =
    Solver.preprocess ~accountant:acc ~phases:[ "update" ]
      ~sparsifier:sketch.Sparsify.sparsifier ~prng
      ~graph:sketch.Sparsify.base ()
  in
  let rounds = Rounds.rounds acc in
  Metrics.observe ctx.Ctx.metrics "prepared.update_rounds" (float_of_int rounds);
  let breakdown = zip3 acc in
  Option.iter (fun a -> replay a breakdown) accountant;
  {
    graph = sketch.Sparsify.base;
    ctx;
    solver;
    sketch;
    fingerprint;
    key_seed = t.key_seed;
    t_opt = t.t_opt;
    generation = t.generation + 1;
    acc;
    prepare_rounds = rounds;
    prepare_bits = Rounds.bits acc;
    prepare_breakdown = breakdown;
    queries = 0;
    query_rounds = 0;
  }

let update_cached ?cache ?accountant t delta =
  let cache = match cache with Some c -> c | None -> shared_cache () in
  let old_key = own_key t in
  let patched = update ?accountant t delta in
  (* Patch-in-place: the old key can never serve the mutated graph again,
     and the patched handle lands exactly where [create_cached] would look
     for the new graph — a later prepare of the same (graph, seed, t) is a
     hit instead of a cold rebuild. *)
  Cache.remove cache old_key;
  Cache.add cache (own_key patched) patched;
  Metrics.inc t.ctx.Ctx.metrics "prepared.cache_patch";
  patched

(* Introspection -------------------------------------------------------- *)

let graph t = t.graph
let solver t = t.solver
let sketch t = t.sketch
let generation t = t.generation
let fingerprint_hex t = Fingerprint.to_hex t.fingerprint
let preprocessing_rounds t = t.prepare_rounds
let preprocessing_bits t = t.prepare_bits
let prepare_breakdown t = t.prepare_breakdown
let queries t = t.queries
let query_rounds t = t.query_rounds
let amortized_rounds_per_query t =
  float_of_int (t.prepare_rounds + t.query_rounds)
  /. float_of_int (max 1 t.queries)
