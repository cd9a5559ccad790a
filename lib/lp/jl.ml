module Vec = Lbcc_linalg.Vec

let rows_for ~m ~eta =
  if eta <= 0.0 then invalid_arg "Jl.rows_for: eta must be positive";
  let c = 4.0 in
  Stdlib.max 1
    (int_of_float (Float.ceil (c *. log (float_of_int (Stdlib.max 2 m)) /. (eta *. eta))))

let seed_bits ~m =
  let lg = Lbcc_util.Bits.ceil_log2 (Stdlib.max 2 m) in
  lg * lg

(* A tiny keyed hash: SplitMix64 finalizer over (seed, j, i). *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let sign_at ~seed ~j ~i =
  let h =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
         (Int64.add (Int64.mul (Int64.of_int j) 0xD1B54A32D192ED03L) (Int64.of_int i)))
  in
  if Int64.compare (Int64.logand h 1L) 0L = 0 then 1.0 else -1.0

let entry ~seed ~k ~j ~i = sign_at ~seed ~j ~i /. sqrt (float_of_int k)

let row ~seed ~k ~j ~m = Vec.init m (fun i -> entry ~seed ~k ~j ~i)
