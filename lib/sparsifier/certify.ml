open Lbcc_util
module Graph = Lbcc_graph.Graph
module Eigen = Lbcc_linalg.Eigen
module Vec = Lbcc_linalg.Vec

type certificate = {
  lambda_min : float;
  lambda_max : float;
  epsilon_achieved : float;
}

let epsilon_of ~lambda_min ~lambda_max =
  if lambda_min <= 0.0 then infinity
  else Float.max (1.0 -. lambda_min) (lambda_max -. 1.0)

let exact g h =
  if Graph.n g <> Graph.n h then invalid_arg "Certify.exact: vertex count mismatch";
  let lg = Graph.laplacian_dense g and lh = Graph.laplacian_dense h in
  let lambda_min, lambda_max = Eigen.relative_condition lg lh in
  { lambda_min; lambda_max; epsilon_achieved = epsilon_of ~lambda_min ~lambda_max }

(* Local pinned-vertex Laplacian solve (the Laplacian library depends on
   this one, so it cannot be used here). *)
let pinned_factor g =
  if not (Graph.is_connected g) then
    invalid_arg "Certify.power: graphs must be connected";
  let n = Graph.n g in
  let l = Graph.laplacian_dense g in
  let reduced =
    Lbcc_linalg.Dense.init (n - 1) (n - 1) (fun i j ->
        Lbcc_linalg.Dense.get l (i + 1) (j + 1))
  in
  (n, Lbcc_linalg.Dense.factorize reduced)

let pinned_solve (n, f) b =
  let rhs = Array.sub b 1 (n - 1) in
  let sol = Lbcc_linalg.Dense.solve_factored f rhs in
  let x = Array.make n 0.0 in
  Array.blit sol 0 x 1 (n - 1);
  Vec.mean_center x

let power prng g h ~iters =
  if Graph.n g <> Graph.n h then invalid_arg "Certify.power: vertex count mismatch";
  let n = Graph.n g in
  let fg = pinned_factor g and fh = pinned_factor h in
  let rayleigh y =
    let qg = Vec.dot y (Graph.apply_laplacian g y) in
    let qh = Vec.dot y (Graph.apply_laplacian h y) in
    qg /. Float.max qh 1e-300
  in
  (* lambda_max: dominant eigenvalue of L_H^+ L_G on the complement of 1. *)
  let iterate apply =
    let y = ref (Vec.mean_center (Vec.init n (fun _ -> Prng.gaussian prng))) in
    for _ = 1 to iters do
      let z = apply !y in
      let z = Vec.mean_center z in
      let norm = Float.max (Vec.norm2 z) 1e-300 in
      y := Vec.scale (1.0 /. norm) z
    done;
    !y
  in
  let y_max = iterate (fun y -> pinned_solve fh (Graph.apply_laplacian g y)) in
  let y_min = iterate (fun y -> pinned_solve fg (Graph.apply_laplacian h y)) in
  let lambda_max = rayleigh y_max in
  let lambda_min = rayleigh y_min in
  { lambda_min; lambda_max; epsilon_achieved = epsilon_of ~lambda_min ~lambda_max }

(* Power iteration approximates the extremes from inside, so above the
   exact range the certificate is widened by this margin before anything
   trusts A <= B. *)
let power_margin = 1.15

let bound prng g h =
  if Graph.n g <= 400 then exact g h
  else
    let c = power (Prng.split prng) g h ~iters:60 in
    let lambda_min = c.lambda_min /. power_margin in
    let lambda_max = c.lambda_max *. power_margin in
    { lambda_min; lambda_max; epsilon_achieved = epsilon_of ~lambda_min ~lambda_max }
