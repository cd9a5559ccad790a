type kind =
  | Lower of float (* -log (x - l) *)
  | Upper of float (* -log (u - x) *)
  | Both of { a : float; b : float; lo : float; hi : float }

type t = { kind : kind; lo : float; hi : float }

(* Distances to the boundary are clamped away from zero so that barrier
   derivatives stay finite in doubles: a coordinate within 1e-50 of its
   bound is numerically on the boundary, and an infinite phi'' would
   zero out rows of the normal matrix. *)
let safe_dist d = Float.max d 1e-50

let make ~lo ~hi =
  if lo >= hi then invalid_arg "Barrier.make: empty domain";
  match (Float.is_finite lo, Float.is_finite hi) with
  | true, false -> { kind = Lower lo; lo; hi }
  | false, true -> { kind = Upper hi; lo; hi }
  | true, true ->
      let a = Float.pi /. (hi -. lo) in
      let b = -.(Float.pi /. 2.0) *. ((hi +. lo) /. (hi -. lo)) in
      { kind = Both { a; b; lo; hi }; lo; hi }
  | false, false ->
      invalid_arg "Barrier.make: at least one bound must be finite"

let lo t = t.lo
let hi t = t.hi

let contains t x = x > t.lo && x < t.hi

(* Test oracle: "lp.barrier numeric derivatives" (test_lp.ml) checks dphi
   against finite differences of it. *)
(* lbcc-lint: allow typ-dead-export *)
let value t x =
  match t.kind with
  | Lower l -> -.log (safe_dist (x -. l))
  | Upper u -> -.log (safe_dist (u -. x))
  | Both { a; b; _ } -> -.log (safe_dist (cos ((a *. x) +. b)))

let dphi t x =
  match t.kind with
  | Lower l -> -1.0 /. safe_dist (x -. l)
  | Upper u -> 1.0 /. safe_dist (u -. x)
  | Both { a; b; _ } ->
      a *. sin ((a *. x) +. b) /. safe_dist (cos ((a *. x) +. b))

let ddphi t x =
  match t.kind with
  | Lower l ->
      let d = safe_dist (x -. l) in
      1.0 /. (d *. d)
  | Upper u ->
      let d = safe_dist (u -. x) in
      1.0 /. (d *. d)
  | Both { a; b; _ } ->
      let c = safe_dist (cos ((a *. x) +. b)) in
      a *. a /. (c *. c)

(* Test-only, checked by "lp.barrier center interior" (test_lp.ml);
   slated for deletion with it. *)
(* lbcc-lint: allow typ-dead-export *)
let center t =
  match t.kind with
  | Lower l -> l +. 1.0
  | Upper u -> u -. 1.0
  | Both { lo; hi; _ } -> (lo +. hi) /. 2.0
