open Lbcc_util
module Graph = Lbcc_graph.Graph
module Rounds = Lbcc_net.Rounds
module Model = Lbcc_net.Model
module Payload = Lbcc_net.Payload

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

let default_t ?t_scale ~n ~epsilon () =
  let t_scale = Option.value ~default:0.05 t_scale in
  let logn = float_of_int (Bits.ceil_log2 (Stdlib.max 2 n)) in
  Stdlib.max 1 (int_of_float (Float.ceil (t_scale *. logn *. logn /. (epsilon *. epsilon))))

(* Delta-accumulated graphs are multigraphs (an insert may duplicate an
   existing endpoint pair), and the spanner machinery requires simple
   graphs.  Coalesce only when parallel edges are actually present, so the
   static pipeline's behaviour on simple inputs stays bit-identical;
   [edge_origin] then refers to the coalesced graph's edge ids. *)
let has_parallel_edges g =
  let seen = Hashtbl.create (2 * Graph.m g) in
  Array.exists
    (fun (e : Graph.edge) ->
      let key = (Stdlib.min e.u e.v, Stdlib.max e.u e.v) in
      Hashtbl.mem seen key || (Hashtbl.add seen key (); false))
    (Graph.edges g)

let run ?accountant ?k ?t ?t_scale ?iterations ~prng ~graph ~epsilon () =
  if epsilon <= 0.0 then invalid_arg "Sparsify.run: epsilon must be positive";
  let graph = if has_parallel_edges graph then Graph.coalesce graph else graph in
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
  let t = match t with Some t -> t | None -> default_t ?t_scale ~n ~epsilon () in
  let iterations =
    match iterations with Some i -> i | None -> default_iterations ~m
  in
  (* Mutable per-edge state over original edge ids. *)
  let weight = Array.map (fun (e : Graph.edge) -> e.w) (Graph.edges graph) in
  let p = Array.make m 1.0 in
  let alive = Array.make m true in
  let in_last_bundle = Array.make m false in
  let orientation_tbl = Hashtbl.create 64 in
  let bundle_sizes = ref [] in
  for _i = 1 to iterations do
    let ids = List.filter (fun e -> alive.(e)) (List.init m Fun.id) in
    let idx = Array.of_list ids in
    let edges =
      Array.map
        (fun e ->
          let ed = Graph.edge graph e in
          { ed with Graph.w = weight.(e) })
        idx
    in
    let sub = Graph.of_edge_array ~n edges in
    let sub_p = Array.map (fun e -> p.(e)) idx in
    let b = Bundle.run ?accountant:(Some acc) ~prng ~graph:sub ~p:sub_p ~k ~t () in
    Array.fill in_last_bundle 0 m false;
    List.iter
      (fun e ->
        let orig = idx.(e) in
        in_last_bundle.(orig) <- true;
        p.(orig) <- 1.0)
      b.Bundle.bundle;
    List.iter
      (fun (e, from_, to_) ->
        let orig = idx.(e) in
        if not (Hashtbl.mem orientation_tbl orig) then
          Hashtbl.replace orientation_tbl orig (from_, to_))
      b.Bundle.orientations;
    List.iter (fun e -> alive.(idx.(e)) <- false) b.Bundle.rejected;
    bundle_sizes := List.length b.Bundle.bundle :: !bundle_sizes;
    (* Surviving non-bundle edges: quarter the probability, quadruple the
       weight (lines 8-10 of Algorithm 5). *)
    Array.iter
      (fun orig ->
        if alive.(orig) && not (in_last_bundle.(orig)) then begin
          p.(orig) <- p.(orig) /. 4.0;
          weight.(orig) <- weight.(orig) *. 4.0
        end)
      idx
  done;
  (* Final step (lines 11-15): keep the last bundle; sample each remaining
     probabilistic edge at its lower-id endpoint and broadcast additions. *)
  let kept = ref [] in
  let final_sampled = ref 0 in
  let adds_per_vertex = Array.make n 0 in
  for e = m - 1 downto 0 do
    if alive.(e) then begin
      if in_last_bundle.(e) then kept := e :: !kept
      else begin
        let ed = Graph.edge graph e in
        let lower = Stdlib.min ed.u ed.v and higher = Stdlib.max ed.u ed.v in
        if Prng.bernoulli prng p.(e) then begin
          kept := e :: !kept;
          incr final_sampled;
          adds_per_vertex.(lower) <- adds_per_vertex.(lower) + 1;
          (* Orientation of sampled leftovers: towards the higher id. *)
          if not (Hashtbl.mem orientation_tbl e) then
            Hashtbl.replace orientation_tbl e (lower, higher)
        end
      end
    end
  done;
  (* Charge the announcement supersteps: every vertex broadcasts its kept
     leftover edges one per superstep; lockstep cost is the longest list. *)
  let max_adds = Array.fold_left Stdlib.max 0 adds_per_vertex in
  let msg_bits =
    Payload.size [ Vertex_id n; Vertex_id n; Weight (Array.fold_left Float.max 1.0 weight) ]
  in
  for _ = 1 to max_adds do
    Rounds.charge_broadcast acc ~label:"sparsifier-final-sampling" ~bits:msg_bits
  done;
  let kept = !kept in
  let edge_origin = Array.of_list kept in
  let edges =
    Array.map
      (fun e ->
        let ed = Graph.edge graph e in
        { ed with Graph.w = weight.(e) })
      edge_origin
  in
  let sparsifier = Graph.of_edge_array ~n edges in
  let orientation =
    Array.map
      (fun e ->
        match Hashtbl.find_opt orientation_tbl e with
        | Some o -> o
        | None ->
            let ed = Graph.edge graph e in
            (Stdlib.min ed.u ed.v, Stdlib.max ed.u ed.v))
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

let sketch ?accountant ?k ?t ?t_scale ~prng ~graph ~epsilon () =
  let r = run ?accountant ?k ?t ?t_scale ~prng ~graph ~epsilon () in
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

let update ?accountant ?k ?t ?t_scale ~prng sk delta =
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
          run ~accountant:acc ?k ?t ?t_scale ~prng ~graph:pool
            ~epsilon:sk.epsilon ()
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
        (run ~accountant:acc ?k ?t ?t_scale ~prng ~graph:base'
           ~epsilon:sk.epsilon ())
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

(* Test-only, checked by the two "sparsifier.lemma33 resparsify" cases
   (test_sparsifier.ml); slated for deletion with them. *)
(* lbcc-lint: allow typ-dead-export *)
let resparsify ?accountant ?k ?t ?t_scale ~prng ~graphs ~epsilon () =
  match graphs with
  | [] -> invalid_arg "Sparsify.resparsify: empty graph list"
  | first :: rest ->
      (* Coalesce parallel edges of the union: Laplacians add, so merging
         is spectrally exact, and the spanner assumes simple graphs. *)
      let union = Graph.coalesce (List.fold_left Graph.union first rest) in
      run ?accountant ?k ?t ?t_scale ~prng ~graph:union ~epsilon ()
