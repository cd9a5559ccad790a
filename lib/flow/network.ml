open Lbcc_util

type arc = { src : int; dst : int; capacity : int; cost : int }

type t = {
  n : int;
  arcs : arc array;
  source : int;
  sink : int;
}

let make ~n ~source ~sink arcs =
  if source < 0 || source >= n || sink < 0 || sink >= n then
    invalid_arg "Network.make: source/sink out of range";
  if source = sink then invalid_arg "Network.make: source = sink";
  List.iter
    (fun a ->
      if a.src < 0 || a.src >= n || a.dst < 0 || a.dst >= n then
        invalid_arg "Network.make: arc endpoint out of range";
      if a.src = a.dst then invalid_arg "Network.make: self-loop";
      if a.capacity < 0 then invalid_arg "Network.make: negative capacity";
      if a.cost < 0 then invalid_arg "Network.make: negative cost")
    arcs;
  { n; arcs = Array.of_list arcs; source; sink }

let m t = Array.length t.arcs

let max_capacity t = Array.fold_left (fun acc a -> Stdlib.max acc a.capacity) 1 t.arcs
let max_cost t = Array.fold_left (fun acc a -> Stdlib.max acc a.cost) 1 t.arcs

let is_flow ?(tol = 1e-6) t f =
  Array.length f = m t
  && Array.for_all2
       (fun a fe -> fe >= -.tol && fe <= float_of_int a.capacity +. tol)
       t.arcs f
  &&
  let net = Array.make t.n 0.0 in
  Array.iteri
    (fun id a ->
      net.(a.src) <- net.(a.src) +. f.(id);
      net.(a.dst) <- net.(a.dst) -. f.(id))
    t.arcs;
  let ok = ref true in
  let scale = Float.max 1.0 (Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 f) in
  for v = 0 to t.n - 1 do
    if v <> t.source && v <> t.sink && Float.abs net.(v) > tol *. scale then
      ok := false
  done;
  !ok

let flow_value t f =
  let acc = ref 0.0 in
  Array.iteri
    (fun id a ->
      if a.src = t.source then acc := !acc +. f.(id);
      if a.dst = t.source then acc := !acc -. f.(id))
    t.arcs;
  !acc

let flow_cost t f =
  let acc = ref 0.0 in
  Array.iteri (fun id a -> acc := !acc +. (float_of_int a.cost *. f.(id))) t.arcs;
  !acc

(* Test-only, checked by "flow.network undirected support"
   (test_flow.ml); slated for deletion with it. *)
(* lbcc-lint: allow typ-dead-export *)
let undirected_support t =
  let seen = Hashtbl.create (m t) in
  let edges = ref [] in
  Array.iter
    (fun a ->
      let key = (Stdlib.min a.src a.dst, Stdlib.max a.src a.dst) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        edges := { Lbcc_graph.Graph.u = a.src; v = a.dst; w = 1.0 } :: !edges
      end)
    t.arcs;
  Lbcc_graph.Graph.create ~n:t.n !edges

let rand_cap prng max_capacity = 1 + Prng.int prng max_capacity
let rand_cost prng max_cost = Prng.int prng (max_cost + 1)

let random prng ~n ~density ~max_capacity ~max_cost =
  if n < 3 then invalid_arg "Network.random: n must be >= 3";
  let source = 0 and sink = n - 1 in
  let arcs = ref [] in
  let seen = Hashtbl.create 64 in
  let add src dst =
    if src <> dst && not (Hashtbl.mem seen (src, dst)) then begin
      Hashtbl.add seen (src, dst) ();
      arcs :=
        {
          src;
          dst;
          capacity = rand_cap prng max_capacity;
          cost = rand_cost prng max_cost;
        }
        :: !arcs
    end
  in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst && Prng.bernoulli prng density then add src dst
    done
  done;
  (* A random source-sink path guarantees positive maximum flow. *)
  let interior = Array.init (n - 2) (fun i -> i + 1) in
  Prng.shuffle prng interior;
  let len = 1 + Prng.int prng (Stdlib.max 1 (n - 2)) in
  let path = source :: (Array.to_list (Array.sub interior 0 (Stdlib.min len (n - 2))) @ [ sink ]) in
  let rec link = function
    | a :: (b :: _ as rest) ->
        add a b;
        link rest
    | [ _ ] | [] -> ()
  in
  link path;
  make ~n ~source ~sink !arcs

let layered prng ~layers ~width ~max_capacity ~max_cost =
  if layers < 1 || width < 1 then invalid_arg "Network.layered: bad shape";
  let n = 2 + (layers * width) in
  let source = 0 and sink = n - 1 in
  let vertex layer pos = 1 + ((layer - 1) * width) + pos in
  let arcs = ref [] in
  let add src dst =
    arcs :=
      {
        src;
        dst;
        capacity = rand_cap prng max_capacity;
        cost = rand_cost prng max_cost;
      }
      :: !arcs
  in
  for pos = 0 to width - 1 do
    add source (vertex 1 pos)
  done;
  for layer = 1 to layers - 1 do
    for p1 = 0 to width - 1 do
      for p2 = 0 to width - 1 do
        if p1 = p2 || Prng.bernoulli prng 0.5 then
          add (vertex layer p1) (vertex (layer + 1) p2)
      done
    done
  done;
  for pos = 0 to width - 1 do
    add (vertex layers pos) sink
  done;
  make ~n ~source ~sink !arcs

let transportation ~supplies ~demands ~costs =
  let ns = Array.length supplies and nd = Array.length demands in
  if ns = 0 || nd = 0 then invalid_arg "Network.transportation: empty side";
  if Array.length costs <> ns then
    invalid_arg "Network.transportation: costs must have one row per supplier";
  Array.iter
    (fun row ->
      if Array.length row <> nd then
        invalid_arg "Network.transportation: ragged cost matrix")
    costs;
  let n = ns + nd + 2 in
  let source = 0 and sink = n - 1 in
  let supplier i = 1 + i and consumer j = 1 + ns + j in
  let arcs = ref [] in
  Array.iteri
    (fun i s ->
      if s < 0 then invalid_arg "Network.transportation: negative supply";
      if s > 0 then arcs := { src = source; dst = supplier i; capacity = s; cost = 0 } :: !arcs)
    supplies;
  Array.iteri
    (fun j d ->
      if d < 0 then invalid_arg "Network.transportation: negative demand";
      if d > 0 then arcs := { src = consumer j; dst = sink; capacity = d; cost = 0 } :: !arcs)
    demands;
  let total_supply = Array.fold_left ( + ) 0 supplies in
  for i = 0 to ns - 1 do
    for j = 0 to nd - 1 do
      if costs.(i).(j) < 0 then invalid_arg "Network.transportation: negative cost";
      arcs :=
        { src = supplier i; dst = consumer j; capacity = total_supply; cost = costs.(i).(j) }
        :: !arcs
    done
  done;
  make ~n ~source ~sink !arcs
