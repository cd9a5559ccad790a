open Lbcc_util
module Vec = Lbcc_linalg.Vec
module Dense = Lbcc_linalg.Dense
module Sparse = Lbcc_linalg.Sparse
module Rounds = Lbcc_net.Rounds

type operator = {
  rows : int;
  cols : int;
  apply : Vec.t -> Vec.t;
  apply_t : Vec.t -> Vec.t;
  solve_normal : Vec.t -> Vec.t;
  solve_rounds : int;
}

let of_row_scaled ?(solve_rounds = 1) a d =
  if Vec.dim d <> Sparse.rows a then
    invalid_arg "Leverage.of_row_scaled: dimension mismatch";
  let apply x = Vec.mul d (Sparse.matvec a x) in
  let apply_t y = Sparse.matvec_t a (Vec.mul d y) in
  (* Gram matrix (DA)^T (DA) = A^T D^2 A, factored once per operator. *)
  let gram = Sparse.gram a (Vec.mul d d) in
  let factor = lazy (Dense.factorize gram) in
  let solve_normal z = Dense.solve_factored (Lazy.force factor) z in
  { rows = Sparse.rows a; cols = Sparse.cols a; apply; apply_t; solve_normal; solve_rounds }

let exact op =
  Vec.init op.rows (fun i ->
      let p = op.apply (op.solve_normal (op.apply_t (Vec.basis op.rows i))) in
      p.(i))

let approximate ?accountant ~prng ~eta op =
  if eta <= 0.0 then invalid_arg "Leverage.approximate: eta must be positive";
  let m = op.rows in
  (* Never use more probes than exact computation needs: for small [m]
     (simulation scale) the JL constants exceed [m], and [m] basis probes
     compute sigma exactly at the same communication pattern. *)
  let k_jl = Jl.rows_for ~m ~eta:(eta /. 4.0) in
  let k = Stdlib.min k_jl m in
  let use_basis = k >= m in
  (* The leader samples Theta(log^2 m) bits and broadcasts them: one
     broadcast superstep of that size. *)
  let seed = Int64.to_int (Prng.next_int64 prng) in
  (match accountant with
  | Some acc ->
      Rounds.charge_broadcast acc ~label:"leverage-seed" ~bits:(Jl.seed_bits ~m)
  | None -> ());
  let sigma = Vec.zeros m in
  for j = 0 to k - 1 do
    let q = if use_basis then Vec.basis m j else Jl.row ~seed ~k ~j ~m in
    (match accountant with
    | Some acc ->
        (* M^T q and M y are vector exchanges; the normal solve charges
           itself through the operator ([solve_rounds] documents it). *)
        Rounds.charge_vector acc ~label:"leverage-matvec" ~entry_bits:(Bits.float_bits ());
        Rounds.charge_vector acc ~label:"leverage-matvec" ~entry_bits:(Bits.float_bits ())
    | None -> ());
    let p = op.apply (op.solve_normal (op.apply_t q)) in
    for i = 0 to m - 1 do
      sigma.(i) <- sigma.(i) +. (p.(i) *. p.(i))
    done
  done;
  sigma
