module Vec = Lbcc_linalg.Vec
module Dense = Lbcc_linalg.Dense
module Sparse = Lbcc_linalg.Sparse

type t = {
  a : Sparse.t;
  b : Vec.t;
  c : Vec.t;
  barriers : Barrier.t array;
}

let make ~a ~b ~c ~lo ~hi =
  let m = Sparse.rows a and n = Sparse.cols a in
  if Vec.dim b <> n then invalid_arg "Problem.make: b must have dim n";
  if Vec.dim c <> m then invalid_arg "Problem.make: c must have dim m";
  if Array.length lo <> m || Array.length hi <> m then
    invalid_arg "Problem.make: bounds must have dim m";
  let barriers = Array.init m (fun i -> Barrier.make ~lo:lo.(i) ~hi:hi.(i)) in
  { a; b; c; barriers }

let m t = Sparse.rows t.a
let n t = Sparse.cols t.a

let interior t x =
  Vec.dim x = m t && Array.for_all2 (fun bar xi -> Barrier.contains bar xi) t.barriers x

let equality_residual t x =
  let r = Vec.sub (Sparse.matvec_t t.a x) t.b in
  Vec.norm2 r /. Float.max 1.0 (Vec.norm2 t.b)

let objective t x = Vec.dot t.c x

let phi' t x = Array.mapi (fun i xi -> Barrier.dphi t.barriers.(i) xi) x
let phi'' t x = Array.mapi (fun i xi -> Barrier.ddphi t.barriers.(i) xi) x

let big_u t ~x0 =
  let acc = ref (Vec.norm_inf t.c) in
  Array.iteri
    (fun i bar ->
      let lo = Barrier.lo bar and hi = Barrier.hi bar in
      if Float.is_finite hi then acc := Float.max !acc (1.0 /. (hi -. x0.(i)));
      if Float.is_finite lo then acc := Float.max !acc (1.0 /. (x0.(i) -. lo));
      if Float.is_finite lo && Float.is_finite hi then
        acc := Float.max !acc (hi -. lo))
    t.barriers;
  !acc

type normal_solver = {
  solve : d:Vec.t -> rhs:Vec.t -> Vec.t;
  rounds : int;
}

let dense_normal_solver t =
  let solve ~d ~rhs =
    (* Same relative floor as the Laplacian backend: a coordinate pinned to
       its boundary must not zero out a row of the Gram matrix. *)
    let dmax = Array.fold_left Float.max 0.0 d in
    let d = Array.map (fun x -> Float.max x (1e-120 *. Float.max dmax 1e-300)) d in
    let gram = Sparse.gram t.a d in
    Dense.solve gram rhs
  in
  { solve; rounds = 1 }
