open Lbcc_util
module Graph = Lbcc_graph.Graph
module Spanner = Lbcc_spanner.Spanner

type result = {
  sparsifier : Graph.t;
  edge_origin : int array;
  bundle_sizes : int list;
}

let run ?k ?t ~prng ~graph ~epsilon () =
  if not (epsilon > 0.0) then invalid_arg "Apriori.run: epsilon must be positive";
  let n = Graph.n graph and m = Graph.m graph in
  if n = 0 then invalid_arg "Apriori.run: empty graph";
  let k = match k with Some k -> k | None -> Sparsify.default_k ~n in
  let t = match t with Some t -> t | None -> Sparsify.default_t ~n ~epsilon in
  let iterations = Sparsify.default_iterations ~m in
  (* E_i is the live mask of one edge state; every edge exists (p = 1). *)
  let st = Spanner.state ~graph ~p:(Array.make m 1.0) in
  let in_bundle = Array.make m false in
  let bundle_sizes = ref [] in
  for _i = 1 to iterations do
    let b = Bundle.run ~prng ~k ~t st in
    assert (b.Bundle.rejected = []);
    Array.fill in_bundle 0 m false;
    List.iter (fun e -> in_bundle.(e) <- true) b.Bundle.bundle;
    bundle_sizes := List.length b.Bundle.bundle :: !bundle_sizes;
    (* E_i := B_i ∪ {each remaining edge independently w.p. 1/4, reweighted}. *)
    for e = 0 to m - 1 do
      if st.live.(e) && not in_bundle.(e) then
        if Prng.bernoulli prng 0.25 then st.weight.(e) <- st.weight.(e) *. 4.0
        else st.live.(e) <- false
    done
  done;
  (* Algorithm 4 returns E_{⌈log m⌉} = B_last ∪ the edges sampled alive in
     the last iteration. *)
  let edge_origin =
    Array.of_list (List.filter (fun e -> st.live.(e)) (List.init m Fun.id))
  in
  {
    sparsifier =
      Graph.of_edge_array ~n
        (Array.map
           (fun e -> { (Graph.edge graph e) with Graph.w = st.weight.(e) })
           edge_origin);
    edge_origin;
    bundle_sizes = List.rev !bundle_sizes;
  }
