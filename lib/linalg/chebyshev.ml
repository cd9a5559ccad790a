type result = {
  solution : Vec.t;
  iterations : int;
  residual_norm : float;
}

let iterations_bound ~kappa ~eps =
  if kappa < 1.0 then invalid_arg "Chebyshev.iterations_bound: kappa < 1";
  if eps <= 0.0 then invalid_arg "Chebyshev.iterations_bound: eps <= 0";
  1 + int_of_float (Float.ceil (sqrt kappa *. log (2.0 /. eps)))

(* Preconditioned Chebyshev (Saad, "Iterative methods for sparse linear
   systems", Algorithm 12.1, preconditioned variant).  The eigenvalues of
   B^{-1}A lie in [1/kappa, 1].

   The recurrence runs over preallocated workspaces [ax], [r], [z], [d]
   and in-place operators, so a whole iteration allocates nothing.  The [d]
   update rounds as [add (scale cd d) (scale cz z)] would. *)
let run ?x0 ~matvec ~solve_b ~kappa ~b ~iters ~stop () =
  let n = Vec.dim b in
  let lmin = 1.0 /. kappa and lmax = 1.0 in
  let theta = (lmax +. lmin) /. 2.0 in
  let delta = (lmax -. lmin) /. 2.0 in
  let x = match x0 with Some v -> Vec.copy v | None -> Vec.zeros n in
  let ax = Vec.zeros n and r = Vec.zeros n and z = Vec.zeros n in
  matvec x ax;
  Vec.sub_into b ax r;
  solve_b r z;
  let d = Vec.zeros n in
  Vec.scale_into (1.0 /. theta) z d;
  let sigma1 = theta /. delta in
  let rho_prev = ref (1.0 /. sigma1) in
  let bnorm = Float.max (Vec.norm2 b) 1e-300 in
  let k = ref 0 in
  let continue_ = ref true in
  while !continue_ && !k < iters do
    incr k;
    Vec.axpy 1.0 d x;
    matvec x ax;
    Vec.sub_into b ax r;
    if stop (Vec.norm2 r /. bnorm) then continue_ := false
    else begin
      solve_b r z;
      let rho = 1.0 /. ((2.0 *. sigma1) -. !rho_prev) in
      let coeff_d = rho *. !rho_prev in
      let coeff_z = 2.0 *. rho /. delta in
      Vec.axpby_into coeff_d coeff_z z d;
      rho_prev := rho
    end
  done;
  { solution = x; iterations = !k; residual_norm = Vec.norm2 r /. bnorm }

(* [x0] stays for ROADMAP item 1(a): its verified solve restarts from the
   current iterate. *)
(* lbcc-lint: allow typ-dead-option *)
let solve ?x0 ~matvec ~solve_b ~kappa ~eps ~b () =
  let iters = iterations_bound ~kappa ~eps in
  run ?x0 ~matvec ~solve_b ~kappa ~b ~iters ~stop:(fun _ -> false) ()

let solve_adaptive ~matvec ~solve_b ~kappa ~rtol ~b =
  let iters = 4 * iterations_bound ~kappa ~eps:rtol in
  run ~matvec ~solve_b ~kappa ~b ~iters ~stop:(fun res -> res <= rtol) ()
