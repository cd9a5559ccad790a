module Vec = Lbcc_linalg.Vec
module Dense = Lbcc_linalg.Dense
module Graph = Lbcc_graph.Graph

let is_sdd_nonpositive_offdiag m =
  let tol = 1e-9 in
  Dense.is_symmetric ~tol m
  &&
  let n = Dense.rows m in
  let ok = ref true in
  for u = 0 to n - 1 do
    let off = ref 0.0 in
    for v = 0 to n - 1 do
      if v <> u then begin
        let x = Dense.get m u v in
        if x > tol then ok := false;
        off := !off +. Float.abs x
      end
    done;
    if Dense.get m u u < !off -. tol then ok := false
  done;
  !ok

let virtual_graph m =
  if not (is_sdd_nonpositive_offdiag m) then
    invalid_arg "Gremban.virtual_graph: matrix is not SDD with nonpositive off-diagonals";
  let n = Dense.rows m in
  let edges = ref [] in
  (* Off-diagonal entries: edges within each copy. *)
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let x = Dense.get m u v in
      if x < 0.0 then begin
        edges := { Graph.u; v; w = -.x } :: !edges;
        edges := { Graph.u = n + u; v = n + v; w = -.x } :: !edges
      end
    done
  done;
  (* Diagonal slack: cross edges u <-> u+n of weight C2(u,u)/2. *)
  let any_slack = ref false in
  for u = 0 to n - 1 do
    let off = ref 0.0 in
    for v = 0 to n - 1 do
      if v <> u then off := !off +. Float.abs (Dense.get m u v)
    done;
    let slack = Dense.get m u u -. !off in
    if slack > 1e-12 then begin
      any_slack := true;
      edges := { Graph.u; v = n + u; w = slack /. 2.0 } :: !edges
    end
  done;
  if not !any_slack then
    invalid_arg
      "Gremban.virtual_graph: zero slack everywhere — the matrix is a \
       Laplacian, solve it directly";
  Graph.create ~n:(2 * n) !edges

let solve_with ~laplacian_solve m y =
  let n = Dense.rows m in
  if Vec.dim y <> n then invalid_arg "Gremban.solve: dimension mismatch";
  let g = virtual_graph m in
  let b = Array.init (2 * n) (fun i -> if i < n then y.(i) else -.y.(i - n)) in
  let x12 = laplacian_solve g b in
  Array.init n (fun i -> (x12.(i) -. x12.(n + i)) /. 2.0)

let solve m y = solve_with ~laplacian_solve:(fun g b -> Exact.solve_graph g b) m y
