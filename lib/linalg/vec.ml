type t = float array

let create n x = Array.make n x
let zeros n = Array.make n 0.0
let ones n = Array.make n 1.0
let init = Array.init

let basis n i =
  let v = zeros n in
  v.(i) <- 1.0;
  v

let copy = Array.copy
let dim = Array.length

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
        (Array.length x) (Array.length y))

let map2 f x y =
  check_dims "map2" x y;
  Array.init (Array.length x) (fun i -> f x.(i) y.(i))

let add x y = map2 ( +. ) x y
let sub x y = map2 ( -. ) x y
let scale a x = Array.map (fun v -> a *. v) x
let neg x = scale (-1.0) x
let mul x y = map2 ( *. ) x y
let div x y = map2 ( /. ) x y
let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

(* In-place kernels: same elementwise arithmetic as their allocating
   counterparts (identical rounding), writing into a caller-owned buffer.
   Destinations may alias inputs. *)

let sub_into x y dst =
  check_dims "sub_into" x y;
  check_dims "sub_into" x dst;
  for i = 0 to Array.length x - 1 do
    dst.(i) <- x.(i) -. y.(i)
  done

let scale_into a x dst =
  check_dims "scale_into" x dst;
  for i = 0 to Array.length x - 1 do
    dst.(i) <- a *. x.(i)
  done

(* dst <- a*dst + b*z, the Chebyshev direction update.  Rounding matches
   add (scale a dst) (scale b z). *)
let axpby_into a b z dst =
  check_dims "axpby_into" z dst;
  for i = 0 to Array.length z - 1 do
    dst.(i) <- (a *. dst.(i)) +. (b *. z.(i))
  done

let mean_center_into x dst =
  check_dims "mean_center_into" x dst;
  let n = Array.length x in
  if n > 0 then begin
    (* Same left-to-right summation as [sum], as an allocation-free loop. *)
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      s := !s +. x.(i)
    done;
    let m = !s /. float_of_int n in
    for i = 0 to n - 1 do
      dst.(i) <- x.(i) -. m
    done
  end

let dot x y =
  check_dims "dot" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

let norm_inf x = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 x
let norm1 x = Array.fold_left (fun acc v -> acc +. Float.abs v) 0.0 x

let dist2 x y = norm2 (sub x y)

let weighted_norm w x =
  check_dims "weighted_norm" w x;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (w.(i) *. x.(i) *. x.(i))
  done;
  sqrt !acc

let sum x = Array.fold_left ( +. ) 0.0 x
let map = Array.map

let mean_center x =
  let n = Array.length x in
  if n = 0 then [||]
  else begin
    let m = sum x /. float_of_int n in
    Array.map (fun v -> v -. m) x
  end

let max_elt x = Array.fold_left Float.max neg_infinity x
