open Lbcc_util
module Graph = Lbcc_graph.Graph
module Rounds = Lbcc_net.Rounds
module Model = Lbcc_net.Model
module Payload = Lbcc_net.Payload
module Spanner = Lbcc_spanner.Spanner

type result = {
  sparsifier : Graph.t;
  edge_origin : int array;
  orientation : (int * int) array;
  rounds : int;
  bundle_sizes : int list;
  final_sampled : int;
}

let default_k ~n = Stdlib.max 1 (Bits.ceil_log2 (Stdlib.max 2 n))

let default_iterations ~m = Stdlib.max 1 (Bits.ceil_log2 (Stdlib.max 2 m))

(* The calibrated constant of the bundle size (DESIGN.md, substitution 3);
   the paper's 400 makes every feasible input its own sparsifier. *)
let t_scale = 0.05

let default_t ~n ~epsilon =
  let logn = float_of_int (Bits.ceil_log2 (Stdlib.max 2 n)) in
  Stdlib.max 1 (int_of_float (Float.ceil (t_scale *. logn *. logn /. (epsilon *. epsilon))))

(* Delta-accumulated graphs are multigraphs (an insert may duplicate an
   existing endpoint pair), and the spanner machinery requires simple
   graphs.  Coalesce only when parallel edges are actually present, so the
   static pipeline's behaviour on simple inputs stays bit-identical;
   [edge_origin] then refers to the coalesced graph's edge ids. *)
let run ?accountant ?k ?t ~prng ~graph ~epsilon () =
  if not (epsilon > 0.0) then invalid_arg "Sparsify.run: epsilon must be positive";
  let graph = if Graph.has_parallel_edges graph then Graph.coalesce graph else graph in
  let n = Graph.n graph and m = Graph.m graph in
  if n = 0 then invalid_arg "Sparsify.run: empty graph";
  let acc =
    match accountant with
    | Some a -> a
    | None -> Rounds.create ~bandwidth:(Model.bandwidth ~n)
  in
  let start_rounds = Rounds.checkpoint acc in
  Rounds.with_phase acc "sparsify" @@ fun () ->
  let k = match k with Some k -> k | None -> default_k ~n in
  let t = match t with Some t -> t | None -> default_t ~n ~epsilon in
  let iterations = default_iterations ~m in
  (* One edge state over the input's edge ids for the whole run: a dead
     edge was sampled out of existence. *)
  let st = Spanner.state ~graph ~p:(Array.make m 1.0) in
  let in_last_bundle = Array.make m false in
  let bundle_sizes = ref [] in
  for _i = 1 to iterations do
    let b = Bundle.run ~accountant:acc ~prng ~k ~t st in
    Array.fill in_last_bundle 0 m false;
    List.iter (fun e -> in_last_bundle.(e) <- true) b.Bundle.bundle;
    bundle_sizes := List.length b.Bundle.bundle :: !bundle_sizes;
    (* Surviving non-bundle edges: quarter the probability, quadruple the
       weight (lines 8-10 of Algorithm 5). *)
    for e = 0 to m - 1 do
      if st.live.(e) && not in_last_bundle.(e) then begin
        st.p.(e) <- st.p.(e) /. 4.0;
        st.weight.(e) <- st.weight.(e) *. 4.0
      end
    done
  done;
  (* Final step (lines 11-15): keep the last bundle; sample each remaining
     probabilistic edge at its lower-id endpoint and broadcast additions. *)
  let kept = ref [] in
  let final_sampled = ref 0 in
  let adds_per_vertex = Array.make n 0 in
  for e = m - 1 downto 0 do
    if st.live.(e) then begin
      if in_last_bundle.(e) then kept := e :: !kept
      else begin
        let ed = Graph.edge graph e in
        let lower = Stdlib.min ed.u ed.v in
        if Prng.bernoulli prng st.p.(e) then begin
          kept := e :: !kept;
          incr final_sampled;
          adds_per_vertex.(lower) <- adds_per_vertex.(lower) + 1;
          (* Orientation of sampled leftovers: towards the higher id. *)
          if st.tail.(e) < 0 then st.tail.(e) <- lower
        end
      end
    end
  done;
  (* Charge the announcement supersteps: every vertex broadcasts its kept
     leftover edges one per superstep; lockstep cost is the longest list. *)
  let max_adds = Array.fold_left Stdlib.max 0 adds_per_vertex in
  let msg_bits =
    Payload.size
      [ Vertex_id n; Vertex_id n; Weight (Array.fold_left Float.max 1.0 st.weight) ]
  in
  for _ = 1 to max_adds do
    Rounds.charge_broadcast acc ~label:"sparsifier-final-sampling" ~bits:msg_bits
  done;
  (* Every kept edge has a tail: the bundle edges entered F+, and the
     sampled leftovers were just given one. *)
  let edge_origin = Array.of_list !kept in
  let sparsifier =
    Graph.of_edge_array ~n
      (Array.map
         (fun e -> { (Graph.edge graph e) with Graph.w = st.weight.(e) })
         edge_origin)
  in
  let orientation =
    Array.map
      (fun e ->
        let from_ = st.tail.(e) in
        (from_, Graph.other_endpoint (Graph.edge graph e) from_))
      edge_origin
  in
  {
    sparsifier;
    edge_origin;
    orientation;
    rounds = Rounds.checkpoint acc - start_rounds;
    bundle_sizes = List.rev !bundle_sizes;
    final_sampled = !final_sampled;
  }

let out_degrees result =
  let deg = Array.make (Graph.n result.sparsifier) 0 in
  Array.iter (fun (from_, _) -> deg.(from_) <- deg.(from_) + 1) result.orientation;
  deg

(* Incremental sketches ------------------------------------------------- *)

type sketch = {
  base : Graph.t;
  sparsifier : Graph.t;
  epsilon : float;
  generation : int;
  resampled : int;
  passed : int;
  last_rounds : int;
  total_rounds : int;
}

let sketch ~prng ~graph ~epsilon () =
  let r = run ~prng ~graph ~epsilon () in
  {
    base = graph;
    sparsifier = r.sparsifier;
    epsilon;
    generation = 0;
    resampled = Graph.m r.sparsifier;
    passed = 0;
    last_rounds = r.rounds;
    total_rounds = r.rounds;
  }

let update ?accountant ~prng sk delta =
  let n = Graph.n sk.base in
  if Graph.Delta.is_empty delta then
    {
      sk with
      generation = sk.generation + 1;
      resampled = 0;
      passed = Graph.m sk.sparsifier;
      last_rounds = 0;
    }
  else begin
    let acc =
      match accountant with
      | Some a -> a
      | None -> Rounds.create ~bandwidth:(Model.bandwidth ~n)
    in
    let start = Rounds.checkpoint acc in
    Rounds.with_phase acc "update" @@ fun () ->
    (* The delta is known only to the endpoints that own its edges; announce
       it first so every vertex can re-run the hit-region sampling locally.
       Each op is broadcast by the lower endpoint of the edge it names, one
       op per superstep — lockstep cost is the busiest announcer. *)
    let touched = Graph.delta_touched sk.base delta in
    let ops_per_vertex = Array.make n 0 in
    let announce u v =
      let lower = Stdlib.min u v in
      ops_per_vertex.(lower) <- ops_per_vertex.(lower) + 1
    in
    Array.iter
      (fun (e : Graph.edge) -> announce e.u e.v)
      (Graph.Delta.inserts delta);
    Array.iter
      (fun id ->
        let e = Graph.edge sk.base id in
        announce e.u e.v)
      (Graph.Delta.deletes delta);
    Array.iter
      (fun (id, _) ->
        let e = Graph.edge sk.base id in
        announce e.u e.v)
      (Graph.Delta.reweights delta);
    let max_ops = Array.fold_left Stdlib.max 0 ops_per_vertex in
    let msg_bits =
      Payload.size
        [
          Vertex_id n;
          Vertex_id n;
          Weight (Float.max 1.0 (Graph.max_weight sk.base));
        ]
    in
    Rounds.with_phase acc "delta" (fun () ->
        for _ = 1 to max_ops do
          Rounds.charge_broadcast acc ~label:"announce" ~bits:msg_bits
        done);
    let base' = Graph.apply sk.base delta in
    (* Split by the delta's vertex neighborhoods: sketch edges with both
       endpoints untouched pass through verbatim (the old sketch still
       approximates that region); everything incident to a touched vertex is
       re-sparsified from the exact accumulated edges, so deletes and
       reweights need no per-edge origin bookkeeping — the whole hit region
       is rebuilt from ground truth.  Errors on the pass-through part
       compose multiplicatively across generations (the KPPS
       resparsification regime); quality is certified a posteriori against
       [base]. *)
    let passed = ref [] and n_passed = ref 0 in
    Array.iter
      (fun (e : Graph.edge) ->
        if not (touched.(e.u) || touched.(e.v)) then begin
          passed := e :: !passed;
          incr n_passed
        end)
      (Graph.edges sk.sparsifier);
    let hit = ref [] and n_hit = ref 0 in
    Array.iter
      (fun (e : Graph.edge) ->
        if touched.(e.u) || touched.(e.v) then begin
          hit := e :: !hit;
          incr n_hit
        end)
      (Graph.edges base');
    let resampled_edges =
      if !n_hit = 0 then [||]
      else
        let pool = Graph.coalesce (Graph.create ~n (List.rev !hit)) in
        let r =
          run ~accountant:acc ~prng ~graph:pool ~epsilon:sk.epsilon ()
        in
        Graph.edges r.sparsifier
    in
    let sparsifier =
      Graph.of_edge_array ~n
        (Array.append (Array.of_list (List.rev !passed)) resampled_edges)
    in
    (* Safety valve: a sketch that disconnects a still-connected base is a
       certification failure waiting to happen (and would break downstream
       preconditioner factorization), so rebuild from ground truth.  The
       check and the fallback are both deterministic. *)
    let sparsifier =
      if Graph.is_connected base' && not (Graph.is_connected sparsifier) then
        (run ~accountant:acc ~prng ~graph:base' ~epsilon:sk.epsilon ())
          .sparsifier
      else sparsifier
    in
    let rounds = Rounds.checkpoint acc - start in
    {
      base = base';
      sparsifier;
      epsilon = sk.epsilon;
      generation = sk.generation + 1;
      resampled = !n_hit;
      passed = !n_passed;
      last_rounds = rounds;
      total_rounds = sk.total_rounds + rounds;
    }
  end
