type t = { r : int; c : int; a : float array }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Dense.create: negative dimension";
  { r; c; a = Array.make (r * c) 0.0 }

let rows m = m.r

let get m i j = m.a.((i * m.c) + j)
let set m i j v = m.a.((i * m.c) + j) <- v
let add_entry m i j v = m.a.((i * m.c) + j) <- m.a.((i * m.c) + j) +. v

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

(* Output rows are independent in matvec and the update rows of an LU
   pivot step are independent too, so both parallelize over row chunks
   with bit-identical results (each row's arithmetic sequence is
   unchanged).  Small problems stay sequential. *)
let parallel_rows ~n ~work_per_row body =
  if n >= 64 && n * work_per_row >= 1 lsl 14 then
    Lbcc_util.Pool.parallel_for (Lbcc_util.Pool.default ()) ~n body
  else body 0 n

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

let of_diag d =
  let n = Array.length d in
  let m = create n n in
  for i = 0 to n - 1 do
    set m i i d.(i)
  done;
  m

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

(* Rump, "Verification of positive definiteness" (BIT 46, 2006): if
   floating-point Cholesky runs to completion on fl(A - cI) with
   c >= gamma_{k+1} / (1 - gamma_{k+1}) * tr|A| plus an underflow term,
   then A is positive definite, whatever the evaluation order of the inner
   products; more precisely lambda_min(A) >= c minus that bound, minus
   the rounding of the shifted diagonal.  Doubling the bound, with
   gamma_{k+2} for gamma_{k+1}, covers that rounding and leaves
   lambda_min(A) > slack.  The factor overwrites the lower triangle row
   by row (Cholesky-Banachiewicz), so both inner-product operands are
   contiguous. *)
let proves_positive_definite ~slack m =
  if m.r <> m.c then invalid_arg "Dense.proves_positive_definite: not square";
  let k = m.r and a = m.a in
  let trace = ref 0.0 and max_diag = ref 0.0 in
  for i = 0 to k - 1 do
    let d = Float.abs a.((i * k) + i) in
    trace := !trace +. d;
    max_diag := Float.max !max_diag d
  done;
  let ku = float_of_int (k + 2) *. epsilon_float /. 2.0 in
  let gamma = ku /. (1.0 -. ku) in
  let underflow = 4.0 *. Float.succ 0.0 *. (float_of_int (2 * (k + 1)) +. !max_diag) in
  let shift = (2.0 *. gamma /. (1.0 -. gamma) *. !trace) +. underflow +. slack in
  for i = 0 to k - 1 do
    a.((i * k) + i) <- a.((i * k) + i) -. shift
  done;
  let ok = ref true and i = ref 0 in
  while !ok && !i < k do
    let bi = !i * k in
    for j = 0 to !i do
      let bj = j * k in
      let s = ref a.(bi + j) in
      for p = 0 to j - 1 do
        s := !s -. (a.(bi + p) *. a.(bj + p))
      done;
      if j < !i then a.(bi + j) <- !s /. a.(bj + j)
      else if !s > 0.0 then a.(bi + j) <- sqrt !s
      else (* also a nan pivot *) ok := false
    done;
    incr i
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
