type t = { r : int; c : int; a : float array }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Dense.create: negative dimension";
  { r; c; a = Array.make (r * c) 0.0 }

let rows m = m.r

let get m i j = m.a.((i * m.c) + j)
let set m i j v = m.a.((i * m.c) + j) <- v
let add_entry m i j v = m.a.((i * m.c) + j) <- m.a.((i * m.c) + j) +. v

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    set m i i 1.0
  done;
  m

let init r c f =
  let m = create r c in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      set m i j (f i j)
    done
  done;
  m

let fill m v = Array.fill m.a 0 (m.r * m.c) v
let copy m = { m with a = Array.copy m.a }

let check_same name x y =
  if x.r <> y.r || x.c <> y.c then
    invalid_arg (Printf.sprintf "Dense.%s: dimension mismatch" name)

let add x y =
  check_same "add" x y;
  { x with a = Array.init (Array.length x.a) (fun i -> x.a.(i) +. y.a.(i)) }

(* Output rows are independent in matmul/matvec and the update rows of an
   LU pivot step are independent too, so all three parallelize over row
   chunks with bit-identical results (each row's arithmetic sequence is
   unchanged).  Small problems stay sequential. *)
let parallel_rows ~n ~work_per_row body =
  if n >= 64 && n * work_per_row >= 1 lsl 14 then
    Lbcc_util.Pool.parallel_for (Lbcc_util.Pool.default ()) ~n body
  else body 0 n

let matmul x y =
  if x.c <> y.r then invalid_arg "Dense.matmul: inner dimension mismatch";
  let z = create x.r y.c in
  parallel_rows ~n:x.r ~work_per_row:(x.c * y.c) (fun lo hi ->
      for i = lo to hi - 1 do
        for k = 0 to x.c - 1 do
          let xik = get x i k in
          (* Exact zero-skip: an optimisation, not a tolerance test. *)
          (* lbcc-lint: allow det-float-poly-compare *)
          if xik <> 0.0 then
            for j = 0 to y.c - 1 do
              add_entry z i j (xik *. get y k j)
            done
        done
      done);
  z

let matvec_into m x y =
  if m.c <> Array.length x then invalid_arg "Dense.matvec_into: dimension mismatch";
  if m.r <> Array.length y then invalid_arg "Dense.matvec_into: dimension mismatch";
  parallel_rows ~n:m.r ~work_per_row:m.c (fun lo hi ->
      for i = lo to hi - 1 do
        let acc = ref 0.0 in
        let base = i * m.c in
        for j = 0 to m.c - 1 do
          acc := !acc +. (m.a.(base + j) *. x.(j))
        done;
        y.(i) <- !acc
      done)

let matvec m x =
  if m.c <> Array.length x then invalid_arg "Dense.matvec: dimension mismatch";
  let y = Array.make m.r 0.0 in
  matvec_into m x y;
  y

(* Test oracle: "linalg.sparse matvec vs dense" (test_linalg.ml) checks
   Sparse.matvec_t against it. *)
(* lbcc-lint: allow typ-dead-export *)
let matvec_t m x =
  if m.r <> Array.length x then invalid_arg "Dense.matvec_t: dimension mismatch";
  let y = Array.make m.c 0.0 in
  for i = 0 to m.r - 1 do
    let xi = x.(i) in
    (* Exact zero-skip: an optimisation, not a tolerance test. *)
    (* lbcc-lint: allow det-float-poly-compare *)
    if xi <> 0.0 then
      for j = 0 to m.c - 1 do
        y.(j) <- y.(j) +. (get m i j *. xi)
      done
  done;
  y

let diag m =
  let n = min m.r m.c in
  Array.init n (fun i -> get m i i)

let of_diag d =
  let n = Array.length d in
  let m = create n n in
  for i = 0 to n - 1 do
    set m i i d.(i)
  done;
  m

let frobenius m = sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 m.a)

let symmetrize m =
  if m.r <> m.c then invalid_arg "Dense.symmetrize: not square";
  init m.r m.c (fun i j -> 0.5 *. (get m i j +. get m j i))

let is_symmetric ?(tol = 1e-10) m =
  m.r = m.c
  &&
  let ok = ref true in
  for i = 0 to m.r - 1 do
    for j = i + 1 to m.c - 1 do
      if Float.abs (get m i j -. get m j i) > tol then ok := false
    done
  done;
  !ok

(* LU factorization with partial pivoting, stored in place.  Returns the
   permutation as an array of row indices. *)
let lu_factor m =
  if m.r <> m.c then invalid_arg "Dense.solve: matrix not square";
  let n = m.r in
  let lu = copy m in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    let pivot = ref k and best = ref (Float.abs (get lu k k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (get lu i k) in
      if v > !best then begin
        best := v;
        pivot := i
      end
    done;
    if !best < 1e-300 then failwith "Dense.solve: singular matrix";
    if !pivot <> k then begin
      for j = 0 to n - 1 do
        let tmp = get lu k j in
        set lu k j (get lu !pivot j);
        set lu !pivot j tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!pivot);
      perm.(!pivot) <- tmp
    end;
    let pkk = get lu k k in
    (* Rows below the pivot update independently (each reads only pivot row
       [k] and writes only itself). *)
    parallel_rows ~n:(n - 1 - k) ~work_per_row:(n - k) (fun lo hi ->
        for t = lo to hi - 1 do
          let i = k + 1 + t in
          let factor = get lu i k /. pkk in
          set lu i k factor;
          for j = k + 1 to n - 1 do
            add_entry lu i j (-.factor *. get lu k j)
          done
        done)
  done;
  (lu, perm)

(* Flat-array accesses keep the triangular-solve inner loops free of boxed
   float temporaries — this runs once per Chebyshev iteration, so it
   dominates the solver's allocation profile. *)
let lu_solve_into (lu, perm) b x =
  let n = rows lu in
  if Array.length b <> n then invalid_arg "Dense.solve: rhs dimension mismatch";
  if Array.length x <> n then invalid_arg "Dense.solve: solution dimension mismatch";
  let a = lu.a and c = lu.c in
  for i = 0 to n - 1 do
    x.(i) <- b.(perm.(i))
  done;
  for i = 1 to n - 1 do
    let base = i * c in
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (a.(base + j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  for i = n - 1 downto 0 do
    let base = i * c in
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (a.(base + j) *. x.(j))
    done;
    x.(i) <- !acc /. a.(base + i)
  done

let lu_solve f b =
  let x = Array.make (rows (fst f)) 0.0 in
  lu_solve_into f b x;
  x

let solve m b = lu_solve (lu_factor m) b

type factorization = t * int array

let factorize = lu_factor
let solve_factored = lu_solve
let solve_factored_into = lu_solve_into

(* Test-only, checked by "linalg.dense inverse" (test_linalg.ml); slated
   for deletion with it. *)
(* lbcc-lint: allow typ-dead-export *)
let inverse m =
  let n = m.r in
  let f = lu_factor m in
  let inv = create n n in
  for j = 0 to n - 1 do
    let col = lu_solve f (Vec.basis n j) in
    for i = 0 to n - 1 do
      set inv i j col.(i)
    done
  done;
  inv

(* Test-only, checked by "linalg.dense cholesky" (test_linalg.ml); slated
   for deletion with it. *)
(* lbcc-lint: allow typ-dead-export *)
let cholesky m =
  if m.r <> m.c then invalid_arg "Dense.cholesky: not square";
  let n = m.r in
  let l = create n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref (get m i j) in
      for k = 0 to j - 1 do
        s := !s -. (get l i k *. get l j k)
      done;
      if i = j then begin
        if !s <= 0.0 then failwith "Dense.cholesky: matrix not positive definite";
        set l i j (sqrt !s)
      end
      else set l i j (!s /. get l j j)
    done
  done;
  l

(* Test-only, checked by "linalg.dense cholesky solve" (test_linalg.ml);
   slated for deletion with it. *)
(* lbcc-lint: allow typ-dead-export *)
let cholesky_solve l b =
  let n = rows l in
  if Array.length b <> n then invalid_arg "Dense.cholesky_solve: dimension mismatch";
  let y = Array.copy b in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      y.(i) <- y.(i) -. (get l i j *. y.(j))
    done;
    y.(i) <- y.(i) /. get l i i
  done;
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      y.(i) <- y.(i) -. (get l j i *. y.(j))
    done;
    y.(i) <- y.(i) /. get l i i
  done;
  y
