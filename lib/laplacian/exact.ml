module Vec = Lbcc_linalg.Vec
module Dense = Lbcc_linalg.Dense
module Graph = Lbcc_graph.Graph

(* One factored block per connected component: the component's vertices and
   the LU factorization of its Laplacian with the first vertex pinned.
   The reduced matrix is SPD; pivoted LU is used rather than Cholesky
   because callers (the IPM) produce weights spanning many orders of
   magnitude, where Cholesky's positivity test fails before LU's pivoting
   does. *)
type block = {
  vertices : int array; (* component members; vertices.(0) is pinned *)
  factorization : Dense.factorization option; (* None for singletons *)
  rhs_buf : float array; (* scratch, length k-1: reduced right-hand side *)
  sol_buf : float array; (* scratch, length k-1: reduced solution *)
}

type t = { graph : Graph.t; blocks : block list }

let factor g =
  let n = Graph.n g in
  if n < 1 then invalid_arg "Exact.factor: empty graph";
  let l = Graph.laplacian_dense g in
  let comp, count = Graph.components g in
  let members = Array.make count [] in
  for v = n - 1 downto 0 do
    members.(comp.(v)) <- v :: members.(comp.(v))
  done;
  let blocks =
    Array.to_list members
    |> List.map (fun vs ->
           let vertices = Array.of_list vs in
           let k = Array.length vertices in
           let rhs_buf = Array.make (k - 1) 0.0
           and sol_buf = Array.make (k - 1) 0.0 in
           if k = 1 then { vertices; factorization = None; rhs_buf; sol_buf }
           else begin
             let reduced =
               Dense.init (k - 1) (k - 1) (fun i j ->
                   Dense.get l vertices.(i + 1) vertices.(j + 1))
             in
             {
               vertices;
               factorization = Some (Dense.factorize reduced);
               rhs_buf;
               sol_buf;
             }
           end)
  in
  { graph = g; blocks }

let graph t = t.graph

let solve_into t b x =
  let n = Graph.n t.graph in
  if Vec.dim b <> n then invalid_arg "Exact.solve: dimension mismatch";
  if Vec.dim x <> n then invalid_arg "Exact.solve: solution dimension mismatch";
  let scale = Float.max 1.0 (Vec.norm_inf b) in
  Array.fill x 0 n 0.0;
  List.iter
    (fun block ->
      let k = Array.length block.vertices in
      let acc = ref 0.0 in
      for i = 0 to k - 1 do
        acc := !acc +. b.(block.vertices.(i))
      done;
      let total = !acc in
      if Float.abs total > 1e-6 *. scale *. float_of_int k then
        invalid_arg "Exact.solve: right-hand side must have zero sum per component";
      match block.factorization with
      | None -> ()
      | Some f ->
          for i = 0 to k - 2 do
            block.rhs_buf.(i) <- b.(block.vertices.(i + 1))
          done;
          Dense.solve_factored_into f block.rhs_buf block.sol_buf;
          (* Mean-center within the component. *)
          let s = ref 0.0 in
          for i = 0 to k - 2 do
            s := !s +. block.sol_buf.(i)
          done;
          let mean = !s /. float_of_int k in
          x.(block.vertices.(0)) <- -.mean;
          for i = 0 to k - 2 do
            x.(block.vertices.(i + 1)) <- block.sol_buf.(i) -. mean
          done)
    t.blocks

let clone_scratch t =
  {
    t with
    blocks =
      List.map
        (fun b ->
          {
            b with
            rhs_buf = Array.make (Array.length b.rhs_buf) 0.0;
            sol_buf = Array.make (Array.length b.sol_buf) 0.0;
          })
        t.blocks;
  }

let solve t b =
  let x = Array.make (Graph.n t.graph) 0.0 in
  solve_into t b x;
  x

let solve_graph g b = solve (factor g) b

(* Test oracle: "laplacian.solver error bound" (test_laplacian.ml) measures
   Solver.solve's error in this norm. *)
(* lbcc-lint: allow typ-dead-export *)
let laplacian_norm g x =
  let q = Vec.dot x (Graph.apply_laplacian g x) in
  sqrt (Float.max 0.0 q)

let residual g ~x ~b =
  let r = Vec.sub b (Graph.apply_laplacian g x) in
  Vec.norm2 r /. Float.max (Vec.norm2 b) 1e-300
