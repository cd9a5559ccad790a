open Lbcc_util

let weight prng w_max =
  if w_max <= 1 then 1.0 else float_of_int (1 + Prng.int prng w_max)

let dedupe_edges edges =
  (* Keep the first edge per unordered endpoint pair. *)
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (e : Graph.edge) ->
      let key = (min e.u e.v, max e.u e.v) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    edges

let erdos_renyi prng ~n ~p ~w_max =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.bernoulli prng p then
        edges := { Graph.u; v; w = weight prng w_max } :: !edges
    done
  done;
  Graph.create ~n !edges

let random_cycle_edges prng ~n ~w_max =
  let perm = Array.init n (fun i -> i) in
  Prng.shuffle prng perm;
  List.init n (fun i ->
      { Graph.u = perm.(i); v = perm.((i + 1) mod n); w = weight prng w_max })

let erdos_renyi_connected prng ~n ~p ~w_max =
  if n < 3 then invalid_arg "Gen.erdos_renyi_connected: n must be >= 3";
  let base = Graph.edges (erdos_renyi prng ~n ~p ~w_max) in
  let cycle = random_cycle_edges prng ~n ~w_max in
  Graph.create ~n (dedupe_edges (Array.to_list base @ cycle))

let complete ?(w_max = 1) prng ~n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := { Graph.u; v; w = weight prng w_max } :: !edges
    done
  done;
  Graph.create ~n !edges

let ring ?(w_max = 1) prng ~n =
  if n < 3 then invalid_arg "Gen.ring: n must be >= 3";
  Graph.create ~n
    (List.init n (fun i -> { Graph.u = i; v = (i + 1) mod n; w = weight prng w_max }))

let grid ?(w_max = 1) prng ~rows ~cols =
  let idx r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then
        edges := { Graph.u = idx r c; v = idx r (c + 1); w = weight prng w_max } :: !edges;
      if r + 1 < rows then
        edges := { Graph.u = idx r c; v = idx (r + 1) c; w = weight prng w_max } :: !edges
    done
  done;
  Graph.create ~n:(rows * cols) !edges

let torus ?(w_max = 1) prng ~rows ~cols =
  if rows < 3 || cols < 3 then invalid_arg "Gen.torus: need rows, cols >= 3";
  let idx r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      edges :=
        { Graph.u = idx r c; v = idx r ((c + 1) mod cols); w = weight prng w_max }
        :: { Graph.u = idx r c; v = idx ((r + 1) mod rows) c; w = weight prng w_max }
        :: !edges
    done
  done;
  Graph.create ~n:(rows * cols) !edges

let clique_edges prng ~offset ~size ~w_max =
  let edges = ref [] in
  for u = 0 to size - 1 do
    for v = u + 1 to size - 1 do
      edges := { Graph.u = offset + u; v = offset + v; w = weight prng w_max } :: !edges
    done
  done;
  !edges

let barbell ?(w_max = 1) prng ~clique ~path =
  if clique < 2 then invalid_arg "Gen.barbell: clique must be >= 2";
  if path < 1 then invalid_arg "Gen.barbell: path must be >= 1";
  let n = (2 * clique) + path - 1 in
  let left = clique_edges prng ~offset:0 ~size:clique ~w_max in
  let right = clique_edges prng ~offset:(clique + path - 1) ~size:clique ~w_max in
  (* Path from vertex clique-1 through path-1 internal vertices to the
     second clique's first vertex. *)
  let path_edges =
    List.init path (fun i ->
        { Graph.u = clique - 1 + i; v = clique + i; w = weight prng w_max })
  in
  Graph.create ~n (left @ right @ path_edges)

let random_geometric prng ~n ~radius ~w_max =
  let pts = Array.init n (fun _ -> (Prng.float prng, Prng.float prng)) in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let x1, y1 = pts.(u) and x2, y2 = pts.(v) in
      let d = sqrt (((x1 -. x2) ** 2.0) +. ((y1 -. y2) ** 2.0)) in
      if d <= radius then edges := { Graph.u; v; w = weight prng w_max } :: !edges
    done
  done;
  let g = Graph.create ~n !edges in
  if Graph.is_connected g then g
  else begin
    (* Stitch components along a random cycle so experiments always run on
       connected inputs. *)
    let cycle = random_cycle_edges prng ~n ~w_max in
    Graph.create ~n (dedupe_edges (!edges @ cycle))
  end

let delta ?(w_max = 1) ?(connected = false) prng ~graph ~inserts ~deletes
    ~reweights () =
  let n = Graph.n graph and m = Graph.m graph in
  if n < 2 then invalid_arg "Gen.delta: graph must have >= 2 vertices";
  let random_insert () =
    let u = Prng.int prng n in
    let v = ref (Prng.int prng (n - 1)) in
    if !v >= u then incr v;
    Graph.Delta.Insert { Graph.u; v = !v; w = weight prng w_max }
  in
  let ins = List.init inserts (fun _ -> random_insert ()) in
  let rw =
    if m = 0 then []
    else
      List.init reweights (fun _ ->
          Graph.Delta.Reweight (Prng.int prng m, weight prng w_max))
  in
  let pick_deletes () =
    if m = 0 then []
    else begin
      let chosen = Hashtbl.create 8 in
      let want = Stdlib.min deletes m in
      (* Distinct ids; bounded rejection keeps the draw deterministic. *)
      let attempts = ref 0 in
      while Hashtbl.length chosen < want && !attempts < 64 * want do
        incr attempts;
        let id = Prng.int prng m in
        if not (Hashtbl.mem chosen id) then Hashtbl.add chosen id ()
      done;
      let dels = ref [] in
      Tbl.iter_sorted ~compare:Int.compare
        (fun id () -> dels := Graph.Delta.Delete id :: !dels)
        chosen;
      !dels
    end
  in
  let build dels = Graph.Delta.of_ops (ins @ rw @ dels) in
  if not connected then build (pick_deletes ())
  else begin
    (* Rejection-sample delete sets that would disconnect the graph; after a
       few failures fall back to a delete-free delta. *)
    let rec try_deletes k =
      if k = 0 then build []
      else
        let d = build (pick_deletes ()) in
        if Graph.is_connected (Graph.apply graph d) then d
        else try_deletes (k - 1)
    in
    try_deletes 16
  end
