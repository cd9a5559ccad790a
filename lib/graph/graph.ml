module Sparse = Lbcc_linalg.Sparse
module Dense = Lbcc_linalg.Dense
module Vec = Lbcc_linalg.Vec

type edge = { u : int; v : int; w : float }

type t = {
  n : int;
  edges : edge array;
  adjacency : (int * int) list array; (* per vertex: (neighbor, edge id) *)
}

let check_edge n e =
  if e.u < 0 || e.u >= n || e.v < 0 || e.v >= n then
    invalid_arg (Printf.sprintf "Graph.create: endpoint out of range (%d,%d)" e.u e.v);
  if e.u = e.v then invalid_arg "Graph.create: self-loop";
  if e.w <= 0.0 || not (Float.is_finite e.w) then
    invalid_arg "Graph.create: weights must be positive and finite"

let of_edge_array ~n edges =
  if n < 0 then invalid_arg "Graph.create: negative vertex count";
  Array.iter (check_edge n) edges;
  let adjacency = Array.make n [] in
  Array.iteri
    (fun id e ->
      adjacency.(e.u) <- (e.v, id) :: adjacency.(e.u);
      adjacency.(e.v) <- (e.u, id) :: adjacency.(e.v))
    edges;
  { n; edges; adjacency }

let create ~n edges = of_edge_array ~n (Array.of_list edges)

let n g = g.n
let m g = Array.length g.edges
let edges g = g.edges
let edge g id = g.edges.(id)
let neighbors g v = g.adjacency.(v)
let total_weight g = Array.fold_left (fun acc e -> acc +. e.w) 0.0 g.edges

let max_weight g = Array.fold_left (fun acc e -> Float.max acc e.w) 0.0 g.edges

let other_endpoint e v =
  if e.u = v then e.v
  else if e.v = v then e.u
  else invalid_arg "Graph.other_endpoint: vertex not an endpoint"

let map_weights f g =
  let edges = Array.mapi (fun id e -> { e with w = f id e }) g.edges in
  of_edge_array ~n:g.n edges

let sub_edges g ids =
  let edges = List.map (fun id -> g.edges.(id)) ids in
  create ~n:g.n edges

(* Test oracle: "sparsifier.lemma33 resparsify union" (test_sparsifier.ml)
   certifies Sparsify.resparsify's output against this union. *)
(* lbcc-lint: allow typ-dead-export *)
let union a b =
  if a.n <> b.n then invalid_arg "Graph.union: vertex count mismatch";
  of_edge_array ~n:a.n (Array.append a.edges b.edges)

let coalesce g =
  let tbl = Hashtbl.create (m g) in
  Array.iter
    (fun e ->
      let key = (Stdlib.min e.u e.v, Stdlib.max e.u e.v) in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (prev +. e.w))
    g.edges;
  let compare_key (u1, v1) (u2, v2) =
    let c = Int.compare u1 u2 in
    if c <> 0 then c else Int.compare v1 v2
  in
  let edges =
    Lbcc_util.Tbl.sorted_bindings ~compare:compare_key tbl
    |> List.map (fun ((u, v), w) -> { u; v; w })
  in
  create ~n:g.n edges

(* Test-only, checked by "graph.laplacian sparse = dense"
   (test_graph.ml); slated for deletion with it. *)
(* lbcc-lint: allow typ-dead-export *)
let laplacian g =
  let triplets =
    Array.to_list g.edges
    |> List.concat_map (fun e ->
           [
             (e.u, e.u, e.w);
             (e.v, e.v, e.w);
             (e.u, e.v, -.e.w);
             (e.v, e.u, -.e.w);
           ])
  in
  Sparse.of_triplets ~rows:g.n ~cols:g.n triplets

let laplacian_dense g =
  let d = Dense.create g.n g.n in
  Array.iter
    (fun e ->
      Dense.add_entry d e.u e.u e.w;
      Dense.add_entry d e.v e.v e.w;
      Dense.add_entry d e.u e.v (-.e.w);
      Dense.add_entry d e.v e.u (-.e.w))
    g.edges;
  d

let apply_laplacian_into g x y =
  if Vec.dim x <> g.n then invalid_arg "Graph.apply_laplacian: dimension mismatch";
  if Vec.dim y <> g.n then invalid_arg "Graph.apply_laplacian: dimension mismatch";
  Array.fill y 0 g.n 0.0;
  Array.iter
    (fun e ->
      let d = e.w *. (x.(e.u) -. x.(e.v)) in
      y.(e.u) <- y.(e.u) +. d;
      y.(e.v) <- y.(e.v) -. d)
    g.edges

let apply_laplacian g x =
  let y = Vec.zeros g.n in
  apply_laplacian_into g x y;
  y

let components g =
  let comp = Array.make g.n (-1) in
  let count = ref 0 in
  let stack = Stack.create () in
  for s = 0 to g.n - 1 do
    if comp.(s) < 0 then begin
      comp.(s) <- !count;
      Stack.push s stack;
      while not (Stack.is_empty stack) do
        let v = Stack.pop stack in
        List.iter
          (fun (u, _) ->
            if comp.(u) < 0 then begin
              comp.(u) <- !count;
              Stack.push u stack
            end)
          g.adjacency.(v)
      done;
      incr count
    end
  done;
  (comp, !count)

let is_connected g = g.n <= 1 || snd (components g) = 1

module Delta = struct
  type op = Insert of edge | Delete of int | Reweight of int * float

  type t = {
    inserts : edge array;
    deletes : int array;
    reweights : (int * float) array;
  }

  let check_insert (e : edge) =
    if e.u < 0 || e.v < 0 then
      invalid_arg "Graph.Delta: negative insert endpoint";
    if e.u = e.v then invalid_arg "Graph.Delta: self-loop insert";
    if e.w <= 0.0 || not (Float.is_finite e.w) then
      invalid_arg "Graph.Delta: insert weight must be positive and finite"

  let compare_insert (a : edge) (b : edge) =
    let c = Int.compare a.u b.u in
    if c <> 0 then c
    else
      let c = Int.compare a.v b.v in
      if c <> 0 then c
      else Int64.compare (Int64.bits_of_float a.w) (Int64.bits_of_float b.w)

  (* Sequential semantics over the pre-delta edge ids: for ops targeting the
     same existing id the last one wins, so a Reweight followed by a Delete is
     just the Delete.  The normal form is order-free — inserts canonically
     oriented (u <= v) and sorted, delete/reweight ids sorted and distinct —
     so two op lists with the same effect normalize to equal values. *)
  let of_ops ops =
    let touched = Hashtbl.create 16 in
    let inserts = ref [] in
    List.iter
      (fun op ->
        match op with
        | Insert e ->
            check_insert e;
            let e = if e.u <= e.v then e else { e with u = e.v; v = e.u } in
            inserts := e :: !inserts
        | Delete id ->
            if id < 0 then invalid_arg "Graph.Delta: negative edge id";
            Hashtbl.replace touched id `Delete
        | Reweight (id, w) ->
            if id < 0 then invalid_arg "Graph.Delta: negative edge id";
            if w <= 0.0 || not (Float.is_finite w) then
              invalid_arg "Graph.Delta: reweight must be positive and finite";
            Hashtbl.replace touched id (`Reweight w))
      ops;
    let deletes = ref [] and reweights = ref [] in
    Lbcc_util.Tbl.iter_sorted ~compare:Int.compare
      (fun id op ->
        match op with
        | `Delete -> deletes := id :: !deletes
        | `Reweight w -> reweights := (id, w) :: !reweights)
      touched;
    let inserts = Array.of_list (List.rev !inserts) in
    Array.sort compare_insert inserts;
    {
      inserts;
      deletes = Array.of_list (List.rev !deletes);
      reweights = Array.of_list (List.rev !reweights);
    }

  let inserts d = d.inserts
  let deletes d = d.deletes
  let reweights d = d.reweights

  let size d =
    Array.length d.inserts + Array.length d.deletes + Array.length d.reweights

  let is_empty d = size d = 0

  let max_id d =
    let hi = ref (-1) in
    Array.iter (fun id -> hi := Stdlib.max !hi id) d.deletes;
    Array.iter (fun (id, _) -> hi := Stdlib.max !hi id) d.reweights;
    !hi

end

let check_delta g (d : Delta.t) =
  let m0 = m g in
  if Delta.max_id d >= m0 then
    invalid_arg "Graph.apply: delta references an edge id out of range"

(* Apply a normalized delta: survivors keep their relative order and are
   compacted to ids [0 .. m'-#inserts-1]; inserted edges follow in the
   delta's canonical order.  The remap array sends each pre-delta edge id to
   its post-delta id, or -1 if deleted. *)
let apply_mapped g (d : Delta.t) =
  check_delta g d;
  let m0 = m g in
  let drop = Array.make m0 false in
  Array.iter (fun id -> drop.(id) <- true) (Delta.deletes d);
  let w = Array.map (fun e -> e.w) g.edges in
  Array.iter (fun (id, nw) -> if not drop.(id) then w.(id) <- nw)
    (Delta.reweights d);
  let remap = Array.make m0 (-1) in
  let survivors = ref [] and next = ref 0 in
  for id = m0 - 1 downto 0 do
    if not drop.(id) then survivors := id :: !survivors
  done;
  let kept =
    List.map
      (fun id ->
        remap.(id) <- !next;
        incr next;
        { (g.edges.(id)) with w = w.(id) })
      !survivors
  in
  let edges = Array.append (Array.of_list kept) (Delta.inserts d) in
  (of_edge_array ~n:g.n edges, remap)

let apply g d = fst (apply_mapped g d)

(* Vertices incident to any edge the delta inserts, deletes, or reweights —
   the neighborhoods an incremental re-sparsification must revisit. *)
let delta_touched g (d : Delta.t) =
  check_delta g d;
  let hit = Array.make g.n false in
  let mark_edge (e : edge) =
    hit.(e.u) <- true;
    hit.(e.v) <- true
  in
  Array.iter mark_edge (Delta.inserts d);
  Array.iter (fun id -> mark_edge g.edges.(id)) (Delta.deletes d);
  Array.iter (fun (id, _) -> mark_edge g.edges.(id)) (Delta.reweights d);
  hit
