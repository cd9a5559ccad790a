type t = {
  r : int;
  c : int;
  row_ptr : int array; (* length r+1 *)
  col_idx : int array; (* length nnz *)
  values : float array; (* length nnz *)
}

let rows m = m.r
let cols m = m.c
let nnz m = Array.length m.values

(* Structural sparsity test: a stored entry is live iff it is not bitwise
   zero.  Exact comparison is intended — this decides storage, not numeric
   closeness — and the monomorphic annotation keeps the hot paths unboxed. *)
(* lbcc-lint: allow det-float-poly-compare *)
let nonzero (v : float) = v <> 0.0

let of_triplets ~rows:r ~cols:c triplets =
  if r < 0 || c < 0 then invalid_arg "Sparse.of_triplets: negative dimension";
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= r || j < 0 || j >= c then
        invalid_arg
          (Printf.sprintf "Sparse.of_triplets: entry (%d,%d) out of %dx%d" i j r c))
    triplets;
  (* Sort by (row, col) and merge duplicates. *)
  let arr = Array.of_list triplets in
  Array.sort
    (fun (i1, j1, _) (i2, j2, _) ->
      if i1 <> i2 then Int.compare i1 i2 else Int.compare j1 j2)
    arr;
  let merged = ref [] and count = ref 0 in
  let n = Array.length arr in
  let k = ref 0 in
  while !k < n do
    let i, j, _ = arr.(!k) in
    let v = ref 0.0 in
    while
      !k < n
      && (let i', j', _ = arr.(!k) in
          i' = i && j' = j)
    do
      let _, _, x = arr.(!k) in
      v := !v +. x;
      incr k
    done;
    if nonzero !v then begin
      merged := (i, j, !v) :: !merged;
      incr count
    end
  done;
  let entries = Array.of_list (List.rev !merged) in
  let m = Array.length entries in
  let row_ptr = Array.make (r + 1) 0 in
  Array.iter (fun (i, _, _) -> row_ptr.(i + 1) <- row_ptr.(i + 1) + 1) entries;
  for i = 1 to r do
    row_ptr.(i) <- row_ptr.(i) + row_ptr.(i - 1)
  done;
  let col_idx = Array.make m 0 and values = Array.make m 0.0 in
  Array.iteri
    (fun k (_, j, v) ->
      col_idx.(k) <- j;
      values.(k) <- v)
    entries;
  { r; c; row_ptr; col_idx; values }

let iter_row m i f =
  for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
    f m.col_idx.(k) m.values.(k)
  done

(* Test oracle: "linalg.sparse matvec vs dense" and "linalg.sparse gram"
   (test_linalg.ml) build their dense references with it. *)
(* lbcc-lint: allow typ-dead-export *)
let to_dense m =
  let d = Dense.create m.r m.c in
  for i = 0 to m.r - 1 do
    iter_row m i (fun j v -> Dense.add_entry d i j v)
  done;
  d

(* Rows are independent, so matvec parallelizes over row chunks with
   bit-identical results (each row's accumulation order is unchanged).
   Small matrices stay sequential — a dispatch costs more than the work. *)
let parallel_threshold_nnz = 1 lsl 14
let parallel_threshold_rows = 256

let matvec_into m x y =
  if Array.length x <> m.c then invalid_arg "Sparse.matvec_into: dimension mismatch";
  if Array.length y <> m.r then invalid_arg "Sparse.matvec_into: dimension mismatch";
  let rows lo hi =
    for i = lo to hi - 1 do
      let acc = ref 0.0 in
      for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        acc := !acc +. (m.values.(k) *. x.(m.col_idx.(k)))
      done;
      y.(i) <- !acc
    done
  in
  if m.r >= parallel_threshold_rows && nnz m >= parallel_threshold_nnz then
    Lbcc_util.Pool.parallel_for (Lbcc_util.Pool.default ()) ~n:m.r rows
  else rows 0 m.r

let matvec m x =
  if Array.length x <> m.c then invalid_arg "Sparse.matvec: dimension mismatch";
  let y = Array.make m.r 0.0 in
  matvec_into m x y;
  y

(* Column scatter: rows race on [y], so this one stays sequential. *)
let matvec_t_into m x y =
  if Array.length x <> m.r then invalid_arg "Sparse.matvec_t_into: dimension mismatch";
  if Array.length y <> m.c then invalid_arg "Sparse.matvec_t_into: dimension mismatch";
  Array.fill y 0 (Array.length y) 0.0;
  for i = 0 to m.r - 1 do
    let xi = x.(i) in
    if nonzero xi then iter_row m i (fun j v -> y.(j) <- y.(j) +. (v *. xi))
  done

let matvec_t m x =
  if Array.length x <> m.r then invalid_arg "Sparse.matvec_t: dimension mismatch";
  let y = Array.make m.c 0.0 in
  matvec_t_into m x y;
  y

let gram a d =
  if Array.length d <> a.r then invalid_arg "Sparse.gram: dimension mismatch";
  let g = Dense.create a.c a.c in
  for i = 0 to a.r - 1 do
    let di = d.(i) in
    if nonzero di then
      iter_row a i (fun j1 v1 ->
          iter_row a i (fun j2 v2 -> Dense.add_entry g j1 j2 (di *. v1 *. v2)))
  done;
  g
