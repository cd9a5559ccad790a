type result = {
  value : int;
  flow : float array;
}

(* Residual representation: arc i of the network is residual edge 2i, its
   reverse is 2i+1. *)
type residual = {
  n : int;
  heads : int array; (* per residual edge *)
  caps : int array;
  adj : int list array; (* residual edge ids per vertex *)
}

let build (net : Network.t) =
  let m = Network.m net in
  let heads = Array.make (2 * m) 0 and caps = Array.make (2 * m) 0 in
  let adj = Array.make net.Network.n [] in
  Array.iteri
    (fun i (a : Network.arc) ->
      heads.(2 * i) <- a.dst;
      caps.(2 * i) <- a.capacity;
      heads.((2 * i) + 1) <- a.src;
      caps.((2 * i) + 1) <- 0;
      adj.(a.src) <- (2 * i) :: adj.(a.src);
      adj.(a.dst) <- ((2 * i) + 1) :: adj.(a.dst))
    net.Network.arcs;
  { n = net.Network.n; heads; caps; adj }

(* Test oracle: "flow.mcmf value matches dinic" (test_flow.ml) checks
   Mcmf.solve's flow value against it. *)
(* lbcc-lint: allow typ-dead-export *)
let dinic (net : Network.t) =
  let r = build net in
  let s = net.Network.source and t = net.Network.sink in
  let level = Array.make r.n (-1) in
  let bfs () =
    Array.fill level 0 r.n (-1);
    level.(s) <- 0;
    let q = Queue.create () in
    Queue.push s q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      List.iter
        (fun e ->
          let u = r.heads.(e) in
          if r.caps.(e) > 0 && level.(u) < 0 then begin
            level.(u) <- level.(v) + 1;
            Queue.push u q
          end)
        r.adj.(v)
    done;
    level.(t) >= 0
  in
  (* Depth-first blocking flow with a per-vertex iterator. *)
  let iter = Array.make r.n [] in
  let rec dfs v pushed =
    if v = t then pushed
    else begin
      match iter.(v) with
      | [] -> 0
      | e :: rest ->
          let u = r.heads.(e) in
          if r.caps.(e) > 0 && level.(u) = level.(v) + 1 then begin
            let d = dfs u (Stdlib.min pushed r.caps.(e)) in
            if d > 0 then begin
              r.caps.(e) <- r.caps.(e) - d;
              r.caps.(e lxor 1) <- r.caps.(e lxor 1) + d;
              d
            end
            else begin
              iter.(v) <- rest;
              dfs v pushed
            end
          end
          else begin
            iter.(v) <- rest;
            dfs v pushed
          end
    end
  in
  let value = ref 0 in
  while bfs () do
    Array.iteri (fun v l -> ignore l; iter.(v) <- r.adj.(v)) level;
    let rec pump () =
      let d = dfs s max_int in
      if d > 0 then begin
        value := !value + d;
        pump ()
      end
    in
    pump ()
  done;
  let flow =
    Array.init (Network.m net) (fun i ->
        float_of_int r.caps.((2 * i) + 1))
  in
  { value = !value; flow }
