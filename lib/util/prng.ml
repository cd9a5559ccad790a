type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = next_int64 t in
  { state = mix (Int64.logxor s 0x5851F42D4C957F2DL) }

(* Top 53 bits give a uniform double in [0, 1). *)
let float t =
  let x = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float x *. (1.0 /. 9007199254740992.0)

(* [bernoulli (create seed) p], computed without building the generator
   or boxing the draw, so a one-shot coin from hashed coordinates
   allocates nothing. *)
let first_bernoulli seed p =
  let z = mix (Int64.add (mix (Int64.of_int seed)) golden_gamma) in
  Int64.to_float (Int64.shift_right_logical z 11) *. (1.0 /. 9007199254740992.0)
  < p

(* The second [next_int64] of [create seed] as a nonnegative int, with
   [first_bernoulli]'s allocation-free arithmetic: two [golden_gamma]
   steps past the seeded state. *)
let second_int seed =
  let state = Int64.add (mix (Int64.of_int seed)) golden_gamma in
  Int64.to_int (mix (Int64.add state golden_gamma)) land max_int

let int t bound =
  assert (bound > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let mask = Int64.of_int max_int in
  let rec loop () =
    let r = Int64.to_int (Int64.logand (next_int64 t) mask) in
    let v = r mod bound in
    if r - v > max_int - bound + 1 then loop () else v
  in
  loop ()

let bernoulli t p = float t < p

let gaussian t =
  let rec nonzero () =
    let u = float t in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
