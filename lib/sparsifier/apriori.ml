open Lbcc_util
module Graph = Lbcc_graph.Graph

type result = {
  sparsifier : Graph.t;
  edge_origin : int array;
  bundle_sizes : int list;
}

let run ?k ?t ~prng ~graph ~epsilon () =
  if epsilon <= 0.0 then invalid_arg "Apriori.run: epsilon must be positive";
  let n = Graph.n graph and m = Graph.m graph in
  if n = 0 then invalid_arg "Apriori.run: empty graph";
  let k = match k with Some k -> k | None -> Sparsify.default_k ~n in
  let t = match t with Some t -> t | None -> Sparsify.default_t ~n ~epsilon in
  let iterations = Sparsify.default_iterations ~m in
  let weight = Array.map (fun (e : Graph.edge) -> e.w) (Graph.edges graph) in
  (* E_i as a list of original edge ids currently present. *)
  let current = ref (List.init m Fun.id) in
  let bundle_sizes = ref [] in
  for _i = 1 to iterations do
    let idx = Array.of_list !current in
    let edges =
      Array.map
        (fun e ->
          let ed = Graph.edge graph e in
          { ed with Graph.w = weight.(e) })
        idx
    in
    let sub = Graph.of_edge_array ~n edges in
    let p = Array.make (Array.length idx) 1.0 in
    let b = Bundle.run ~prng ~graph:sub ~p ~k ~t () in
    let bundle = List.map (fun e -> idx.(e)) b.Bundle.bundle in
    assert (b.Bundle.rejected = []);
    let in_bundle = Hashtbl.create (List.length bundle) in
    List.iter (fun e -> Hashtbl.replace in_bundle e ()) bundle;
    bundle_sizes := List.length bundle :: !bundle_sizes;
    (* E_i := B_i ∪ {each remaining edge independently w.p. 1/4, reweighted}. *)
    let next = ref bundle in
    List.iter
      (fun e ->
        if not (Hashtbl.mem in_bundle e) then
          if Prng.bernoulli prng 0.25 then begin
            weight.(e) <- weight.(e) *. 4.0;
            next := e :: !next
          end)
      !current;
    current := List.sort Int.compare !next
  done;
  (* Algorithm 4 returns E_{⌈log m⌉} = B_last ∪ the edges sampled alive in
     the last iteration. *)
  let edge_origin = Array.of_list (List.sort Int.compare !current) in
  let edges =
    Array.map
      (fun e ->
        let ed = Graph.edge graph e in
        { ed with Graph.w = weight.(e) })
      edge_origin
  in
  {
    sparsifier = Graph.of_edge_array ~n edges;
    edge_origin;
    bundle_sizes = List.rev !bundle_sizes;
  }
