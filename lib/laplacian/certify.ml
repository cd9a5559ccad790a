open Lbcc_util
module Graph = Lbcc_graph.Graph
module Dense = Lbcc_linalg.Dense
module Vec = Lbcc_linalg.Vec

type certificate = {
  lambda_min : float;
  lambda_max : float;
  epsilon_achieved : float;
}

type side = Lambda_min | Lambda_max

exception Not_certified of { side : side; estimate : float; last_tried : float }

(* The estimate's quality affects only tightness and cost, never soundness,
   so it runs from a fixed seed: the certificate is a function of (G, H). *)
let power_seed = 0x5eed
let power_iters = 60

(* Confirmation starts just outside the estimate and doubles the relative
   gap on failure; after the first success, bisection steps pull the bound
   back towards the last failure.  Past the cap (a gap of about 1e6) the
   pencil is beyond what float64 Cholesky can confirm. *)
let first_gap = 1e-6
let max_doublings = 40
let bisections = 4

(* The Laplacian with vertex 0's row and column removed.  On a connected
   graph it is positive definite, and a Laplacian pencil is semidefinite
   on all of R^n exactly when its grounded matrix is (both kill 1). *)
let grounded l n = Dense.init (n - 1) (n - 1) (fun i j -> Dense.get l (i + 1) (j + 1))

(* Rayleigh quotients of the power iterates of L_H^+ L_G (towards
   lambda_max) and L_G^+ L_H (towards lambda_min), solving through the
   caller's factors.  Each quotient lies in [lambda_min, lambda_max], so
   the first is a lower estimate of lambda_max and the second an upper
   estimate of lambda_min. *)
let estimate g h fg fh =
  let n = Graph.n g in
  let prng = Prng.create power_seed in
  let iterate apply =
    let y = ref (Vec.mean_center (Vec.init n (fun _ -> Prng.gaussian prng))) in
    for _ = 1 to power_iters do
      let z = Vec.mean_center (apply !y) in
      y := Vec.scale (1.0 /. Float.max (Vec.norm2 z) 1e-300) z
    done;
    let y = !y in
    Vec.dot y (Graph.apply_laplacian g y)
    /. Float.max (Vec.dot y (Graph.apply_laplacian h y)) 1e-300
  in
  let lambda_max = iterate (fun y -> Exact.solve fh (Graph.apply_laplacian g y)) in
  let lambda_min = iterate (fun y -> Exact.solve fg (Graph.apply_laplacian h y)) in
  (lambda_min, lambda_max)

(* [proves ~lg ~lh ~dg ~dh ~terms buf side c] decides [c L_H - L_G >= 0]
   (side [Lambda_max]: then lambda_max <= c) or [L_G - c L_H >= 0]
   (side [Lambda_min]: then lambda_min >= c) on the grounded matrices,
   writing the lower triangle of the difference into [buf].  Each stored
   Laplacian entry is a sum of at most [terms] weights and each entry of
   the difference adds two roundings, so the forming error in row i is at
   most 2 gamma_(terms+2) (c dH_i + dG_i) (Higham, Lemma 3.3), with d the
   weighted degrees; the factor 3 also covers the rounding in d.  A
   row-sum bound is a bound on the spectral norm, and the Cholesky test
   absorbs it as slack. *)
let proves ~lg ~lh ~dg ~dh ~terms buf side c =
  let k = Dense.rows buf in
  let sign = match side with Lambda_max -> 1.0 | Lambda_min -> -1.0 in
  for i = 0 to k - 1 do
    for j = 0 to i do
      Dense.set buf i j (sign *. ((c *. Dense.get lh i j) -. Dense.get lg i j))
    done
  done;
  let nu = float_of_int (terms + 2) *. epsilon_float /. 2.0 in
  let row = ref 0.0 in
  Array.iteri (fun i d -> row := Float.max !row ((c *. dh.(i)) +. d)) dg;
  Dense.proves_positive_definite ~slack:(3.0 *. nu /. (1.0 -. nu) *. !row) buf

(* The confirmed bound nearest the estimate along [at gap], which moves
   away from it as [gap] grows. *)
let confirm ~test ~side ~estimate ~at =
  let rec grow gap doublings =
    if test (at gap) then gap
    else if doublings = max_doublings then
      raise (Not_certified { side; estimate; last_tried = at gap })
    else grow (2.0 *. gap) (doublings + 1)
  in
  let hi = grow first_gap 0 in
  let rec bisect lo hi steps =
    if steps = 0 then hi
    else
      let mid = 0.5 *. (lo +. hi) in
      if test (at mid) then bisect lo mid (steps - 1) else bisect mid hi (steps - 1)
  in
  at (if hi > first_gap then bisect (0.5 *. hi) hi bisections else hi)

let bound fg fh =
  let g = Exact.graph fg and h = Exact.graph fh in
  let n = Graph.n g in
  if Graph.n h <> n then invalid_arg "Certify.bound: vertex count mismatch";
  if not (Graph.is_connected g && Graph.is_connected h) then
    invalid_arg "Certify.bound: graphs must be connected";
  if n < 2 then
    (* No vector is orthogonal to 1: every constant bounds the pencil. *)
    { lambda_min = 1.0; lambda_max = 1.0; epsilon_achieved = 0.0 }
  else
    let full_g = Graph.laplacian_dense g and full_h = Graph.laplacian_dense h in
    let lg = grounded full_g n and lh = grounded full_h n in
    let lmin_hat, lmax_hat = estimate g h fg fh in
    let degrees l = Array.init n (fun i -> Dense.get l i i) in
    let test =
      proves ~lg ~lh ~dg:(degrees full_g) ~dh:(degrees full_h)
        ~terms:(Stdlib.max (Graph.m g) (Graph.m h))
        (Dense.create (n - 1) (n - 1))
    in
    let lambda_max =
      confirm ~test:(test Lambda_max) ~side:Lambda_max ~estimate:lmax_hat
        ~at:(fun gap -> lmax_hat *. (1.0 +. gap))
    in
    (* lambda_min >= 0 needs no proof; only a positive one bounds kappa. *)
    let lambda_min =
      confirm
        ~test:(fun c -> c > 0.0 && test Lambda_min c)
        ~side:Lambda_min ~estimate:lmin_hat
        ~at:(fun gap -> lmin_hat /. (1.0 +. gap))
    in
    {
      lambda_min;
      lambda_max;
      epsilon_achieved = Float.max (1.0 -. lambda_min) (lambda_max -. 1.0);
    }
