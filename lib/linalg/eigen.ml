let off_diagonal_norm a =
  let n = Dense.rows a in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let v = Dense.get a i j in
        acc := !acc +. (v *. v)
      end
    done
  done;
  sqrt !acc

(* Sweeps stop once the off-diagonal Frobenius norm is at most [tol] times
   the matrix's (at least 1), or after [max_sweeps]. *)
let max_sweeps = 100
let tol = 1e-12

let jacobi a0 =
  if not (Dense.is_symmetric ~tol:1e-8 a0) then
    invalid_arg "Eigen.jacobi: matrix not symmetric";
  let n = Dense.rows a0 in
  let a = Dense.symmetrize a0 in
  let v = Dense.identity n in
  let scale = Float.max 1.0 (Dense.frobenius a) in
  let sweep = ref 0 in
  while !sweep < max_sweeps && off_diagonal_norm a > tol *. scale do
    incr sweep;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let apq = Dense.get a p q in
        if Float.abs apq > 1e-300 then begin
          let app = Dense.get a p p and aqq = Dense.get a q q in
          let theta = (aqq -. app) /. (2.0 *. apq) in
          let t =
            let s = if theta >= 0.0 then 1.0 else -1.0 in
            s /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
          in
          let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
          let s = t *. c in
          (* Rotate rows/columns p and q of [a]. *)
          for k = 0 to n - 1 do
            let akp = Dense.get a k p and akq = Dense.get a k q in
            Dense.set a k p ((c *. akp) -. (s *. akq));
            Dense.set a k q ((s *. akp) +. (c *. akq))
          done;
          for k = 0 to n - 1 do
            let apk = Dense.get a p k and aqk = Dense.get a q k in
            Dense.set a p k ((c *. apk) -. (s *. aqk));
            Dense.set a q k ((s *. apk) +. (c *. aqk))
          done;
          for k = 0 to n - 1 do
            let vkp = Dense.get v k p and vkq = Dense.get v k q in
            Dense.set v k p ((c *. vkp) -. (s *. vkq));
            Dense.set v k q ((s *. vkp) +. (c *. vkq))
          done
        end
      done
    done
  done;
  let eigs = Dense.diag a in
  (* Sort ascending, permuting eigenvector columns along. *)
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare eigs.(i) eigs.(j)) order;
  let sorted = Array.map (fun i -> eigs.(i)) order in
  let vecs = Dense.init n n (fun i j -> Dense.get v i order.(j)) in
  (sorted, vecs)

let eigenvalues a = fst (jacobi a)

let pseudo_sqrt_inverse ?(rank_tol = 1e-9) a =
  let eigs, v = jacobi a in
  let n = Array.length eigs in
  let lmax = Array.fold_left Float.max 0.0 eigs in
  let cutoff = rank_tol *. Float.max lmax 1e-300 in
  let d = Array.map (fun l -> if l > cutoff then 1.0 /. sqrt l else 0.0) eigs in
  (* v * diag(d) * v^T *)
  let m = Dense.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc +. (Dense.get v i k *. d.(k) *. Dense.get v j k)
      done;
      Dense.set m i j !acc
    done
  done;
  m

let relative_condition a b =
  let bphalf = pseudo_sqrt_inverse b in
  let m = Dense.symmetrize (Dense.matmul bphalf (Dense.matmul a bphalf)) in
  let eigs = eigenvalues m in
  (* Discard the (common) nullspace: eigenvalues numerically zero. *)
  let lmax = Array.fold_left Float.max 0.0 eigs in
  let cutoff = 1e-7 *. Float.max lmax 1e-300 in
  let nonzero = Array.of_list (List.filter (fun l -> l > cutoff) (Array.to_list eigs)) in
  if Array.length nonzero = 0 then (0.0, 0.0)
  else (nonzero.(0), nonzero.(Array.length nonzero - 1))
