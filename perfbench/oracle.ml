(* Independent output checks.  Nothing here calls into the library: every
   reference answer is recomputed from the input's edge or arc list with
   the benchmark's own code (Laplacian matvec, conjugate gradients,
   union-find, Dijkstra, BFS, Bellman–Ford), so a wrong answer in the
   program cannot be hidden by the same wrong code checking it. *)

(* An undirected weighted edge list, the benchmark's own copy of a graph. *)
type graph = { n : int; us : int array; vs : int array; ws : float array }

let m g = Array.length g.us

let of_triples n (es : (int * int * float) list) =
  let a = Array.of_list es in
  {
    n;
    us = Array.map (fun (u, _, _) -> u) a;
    vs = Array.map (fun (_, v, _) -> v) a;
    ws = Array.map (fun (_, _, w) -> w) a;
  }

(* y = L_G x *)
let lap_matvec g x =
  let y = Array.make g.n 0.0 in
  for e = 0 to m g - 1 do
    let u = g.us.(e) and v = g.vs.(e) in
    let d = g.ws.(e) *. (x.(u) -. x.(v)) in
    y.(u) <- y.(u) +. d;
    y.(v) <- y.(v) -. d
  done;
  y

let dot a b =
  let s = ref 0.0 in
  Array.iteri (fun i x -> s := !s +. (x *. b.(i))) a;
  !s

let norm a = sqrt (dot a a)

(* ||b - L_G x|| / ||b|| *)
let residual g ~b ~x =
  let r = lap_matvec g x in
  Array.iteri (fun i bi -> r.(i) <- bi -. r.(i)) b;
  norm r /. norm b

(* Conjugate gradients on L_G x = b for zero-sum b, iterates kept
   orthogonal to the all-ones nullspace; stops at relative residual
   cg_tol. *)
let cg_tol = 1e-12

let cg_solve g b =
  let n = g.n in
  let center v =
    let mu = Array.fold_left ( +. ) 0.0 v /. float_of_int n in
    Array.iteri (fun i x -> v.(i) <- x -. mu) v
  in
  let x = Array.make n 0.0 in
  let r = Array.copy b in
  center r;
  let p = Array.copy r in
  let rr = ref (dot r r) in
  let target = cg_tol *. cg_tol *. dot b b in
  let it = ref 0 in
  while !rr > target && !it < 20 * n do
    let ap = lap_matvec g p in
    let alpha = !rr /. dot p ap in
    for i = 0 to n - 1 do
      x.(i) <- x.(i) +. (alpha *. p.(i));
      r.(i) <- r.(i) -. (alpha *. ap.(i))
    done;
    center r;
    let rr' = dot r r in
    let beta = rr' /. !rr in
    for i = 0 to n - 1 do
      p.(i) <- r.(i) +. (beta *. p.(i))
    done;
    rr := rr';
    incr it
  done;
  center x;
  x

let resistance g ~s ~t =
  let b = Array.make g.n 0.0 in
  b.(s) <- 1.0;
  b.(t) <- -1.0;
  let x = cg_solve g b in
  x.(s) -. x.(t)

let connected g =
  let parent = Array.init g.n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let comps = ref g.n in
  for e = 0 to m g - 1 do
    let a = find g.us.(e) and b = find g.vs.(e) in
    if a <> b then begin
      parent.(a) <- b;
      decr comps
    end
  done;
  !comps = 1

(* H is a connected, positively reweighted subgraph of G on G's vertex
   set: same n, every H edge joins a pair adjacent in G. *)
let reweighted_subgraph ~g ~h =
  if h.n <> g.n then Error (Printf.sprintf "H has %d vertices, G has %d" h.n g.n)
  else begin
    let key u v = if u < v then (u * g.n) + v else (v * g.n) + u in
    let pairs = Hashtbl.create (m g) in
    for e = 0 to m g - 1 do
      Hashtbl.replace pairs (key g.us.(e) g.vs.(e)) ()
    done;
    let bad = ref None in
    for e = 0 to m h - 1 do
      if !bad = None then
        if not (Hashtbl.mem pairs (key h.us.(e) h.vs.(e))) then
          bad := Some (Printf.sprintf "H edge (%d,%d) is not in G" h.us.(e) h.vs.(e))
        else if not (h.ws.(e) > 0.0 && Float.is_finite h.ws.(e)) then
          bad := Some (Printf.sprintf "H edge %d has weight %g" e h.ws.(e))
    done;
    match !bad with
    | Some why -> Error why
    | None -> if connected h then Ok () else Error "H is disconnected"
  end

let adjacency g =
  let adj = Array.make g.n [] in
  for e = 0 to m g - 1 do
    adj.(g.us.(e)) <- (g.vs.(e), g.ws.(e)) :: adj.(g.us.(e));
    adj.(g.vs.(e)) <- (g.us.(e), g.ws.(e)) :: adj.(g.vs.(e))
  done;
  adj

(* O(n^2) Dijkstra: the graphs here have at most a few hundred vertices. *)
let dijkstra g src =
  let adj = adjacency g in
  let dist = Array.make g.n infinity and done_ = Array.make g.n false in
  dist.(src) <- 0.0;
  for _ = 1 to g.n do
    let u = ref (-1) in
    for v = 0 to g.n - 1 do
      if (not done_.(v)) && (!u < 0 || dist.(v) < dist.(!u)) then u := v
    done;
    let u = !u in
    done_.(u) <- true;
    if Float.is_finite dist.(u) then
      List.iter
        (fun (v, w) -> if dist.(u) +. w < dist.(v) then dist.(v) <- dist.(u) +. w)
        adj.(u)
  done;
  dist

let bfs g src =
  let adj = adjacency g in
  let level = Array.make g.n max_int in
  let q = Queue.create () in
  level.(src) <- 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (v, _) ->
        if level.(v) = max_int then begin
          level.(v) <- level.(u) + 1;
          Queue.push v q
        end)
      adj.(u)
  done;
  level

(* A directed network: arcs (src, dst, capacity, cost), source s, sink t. *)
type network = {
  nv : int;
  src : int array;
  dst : int array;
  cap : int array;
  cost : int array;
  s : int;
  t : int;
}

(* Optimality certificate of a min-cost max-flow, from the arc list alone:
   - feasibility: integral, within capacities, conserved away from s and t;
   - maximality: no s-t path in the residual graph;
   - minimality: no negative-cost residual cycle (Bellman–Ford from a
     virtual root reaching every vertex).
   Returns the flow value and cost when all three hold. *)
let flow_certificate net flow =
  let na = Array.length net.src in
  if Array.length flow <> na then Error "flow has the wrong length"
  else begin
    let f = Array.map Float.to_int flow in
    let bad = ref None in
    let note s = if !bad = None then bad := Some s in
    Array.iteri
      (fun a x ->
        if not (Float.is_integer x) then note (Printf.sprintf "arc %d carries %g" a x)
        else if f.(a) < 0 || f.(a) > net.cap.(a) then
          note (Printf.sprintf "arc %d carries %d outside [0,%d]" a f.(a) net.cap.(a)))
      flow;
    let excess = Array.make net.nv 0 in
    for a = 0 to na - 1 do
      excess.(net.src.(a)) <- excess.(net.src.(a)) - f.(a);
      excess.(net.dst.(a)) <- excess.(net.dst.(a)) + f.(a)
    done;
    Array.iteri
      (fun v e ->
        if v <> net.s && v <> net.t && e <> 0 then
          note (Printf.sprintf "vertex %d has excess %d" v e))
      excess;
    (* Residual arcs: (from, to, cost). *)
    let res = ref [] in
    for a = 0 to na - 1 do
      if f.(a) < net.cap.(a) then res := (net.src.(a), net.dst.(a), net.cost.(a)) :: !res;
      if f.(a) > 0 then res := (net.dst.(a), net.src.(a), - net.cost.(a)) :: !res
    done;
    let res = Array.of_list !res in
    if !bad = None then begin
      let seen = Array.make net.nv false in
      let q = Queue.create () in
      seen.(net.s) <- true;
      Queue.push net.s q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        Array.iter
          (fun (a, b, _) ->
            if a = u && not seen.(b) then begin
              seen.(b) <- true;
              Queue.push b q
            end)
          res
      done;
      if seen.(net.t) then note "an augmenting s-t path remains in the residual graph"
    end;
    if !bad = None then begin
      let d = Array.make net.nv 0 in
      let changed = ref true and passes = ref 0 in
      while !changed && !passes <= net.nv do
        changed := false;
        incr passes;
        Array.iter
          (fun (a, b, c) ->
            if d.(a) + c < d.(b) then begin
              d.(b) <- d.(a) + c;
              changed := true
            end)
          res
      done;
      if !changed then note "a negative-cost cycle remains in the residual graph"
    end;
    match !bad with
    | Some why -> Error why
    | None ->
        let value = - excess.(net.s) in
        let c = ref 0 in
        Array.iteri (fun a x -> c := !c + (x * net.cost.(a))) f;
        Ok (value, !c)
  end
