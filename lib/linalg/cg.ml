type result = {
  solution : Vec.t;
  iterations : int;
  residual_norm : float;
  converged : bool;
}

(* The loop runs over preallocated workspaces [ap], [r], [z] and in-place
   operators, so per-iteration allocation is zero. *)
let solve_preconditioned ?x0 ?max_iter ?(tol = 1e-10) ~matvec ~precond ~b () =
  let n = Vec.dim b in
  let max_iter = match max_iter with Some m -> m | None -> 10 * Stdlib.max n 1 in
  let x = match x0 with Some v -> Vec.copy v | None -> Vec.zeros n in
  let ap = Vec.zeros n and r = Vec.zeros n and z = Vec.zeros n in
  matvec x ap;
  Vec.sub_into b ap r;
  precond r z;
  let p = Vec.copy z in
  let rz = ref (Vec.dot r z) in
  let bnorm = Float.max (Vec.norm2 b) 1e-300 in
  let iterations = ref 0 in
  let finished () = Vec.norm2 r <= tol *. bnorm in
  while (not (finished ())) && !iterations < max_iter do
    incr iterations;
    matvec p ap;
    let pap = Vec.dot p ap in
    if pap <= 0.0 then
      (* Stall on numerically indefinite directions rather than diverging. *)
      iterations := max_iter
    else begin
      let alpha = !rz /. pap in
      Vec.axpy alpha p x;
      Vec.axpy (-.alpha) ap r;
      precond r z;
      let rz' = Vec.dot r z in
      let beta = rz' /. !rz in
      rz := rz';
      for i = 0 to n - 1 do
        p.(i) <- z.(i) +. (beta *. p.(i))
      done
    end
  done;
  let res = Vec.norm2 r in
  { solution = x; iterations = !iterations; residual_norm = res; converged = res <= tol *. bnorm }
