module Vec = Lbcc_linalg.Vec
module Rounds = Lbcc_net.Rounds

type result = {
  x : Vec.t;
  value : float;
  t : float;
  clamped : int;
  evaluations : int;
  rounds : int;
}

let sign v = if v > 0.0 then 1.0 else if v < 0.0 then -1.0 else 0.0

let feasible ~l x =
  let tol = 1e-7 in
  let inf = Vec.max_elt (Vec.map2 (fun xi li -> Float.abs xi /. li) x l) in
  Vec.norm2 x +. inf <= 1.0 +. tol

(* Shared precomputation: coordinates sorted by |a_i|/l_i descending with
   prefix sums S_al, S_l2, S_a2 (index i = number of clamped coordinates). *)
type prep = {
  m : int;
  order : int array;
  s_al : float array; (* length m+1 *)
  s_l2 : float array;
  s_a2 : float array;
  a_norm2 : float; (* ||a||_2^2 *)
}

let prepare ~a ~l =
  let m = Vec.dim a in
  if Vec.dim l <> m then invalid_arg "Mixed_ball: dimension mismatch";
  Array.iter
    (fun li -> if li <= 0.0 then invalid_arg "Mixed_ball: l must be positive")
    l;
  let order = Array.init m Fun.id in
  let ratio i = Float.abs a.(i) /. l.(i) in
  Array.sort (fun i j -> Float.compare (ratio j) (ratio i)) order;
  let s_al = Array.make (m + 1) 0.0
  and s_l2 = Array.make (m + 1) 0.0
  and s_a2 = Array.make (m + 1) 0.0 in
  for pos = 1 to m do
    let i = order.(pos - 1) in
    s_al.(pos) <- s_al.(pos - 1) +. (Float.abs a.(i) *. l.(i));
    s_l2.(pos) <- s_l2.(pos - 1) +. (l.(i) *. l.(i));
    s_a2.(pos) <- s_a2.(pos - 1) +. (a.(i) *. a.(i))
  done;
  { m; order; s_al; s_l2; s_a2; a_norm2 = Vec.dot a a }

(* Objective of the clamp-form candidate with [i] clamped coordinates at
   split [t]; [-inf] when the 2-norm budget is exceeded. *)
let g_value prep ~i ~t =
  let rad = ((1.0 -. t) *. (1.0 -. t)) -. (t *. t *. prep.s_l2.(i)) in
  if rad < 0.0 then neg_infinity
  else
    (t *. prep.s_al.(i))
    +. (sqrt rad *. sqrt (Float.max 0.0 (prep.a_norm2 -. prep.s_a2.(i))))

(* The candidate itself (in the original coordinate order). *)
let candidate prep ~a ~l ~i ~t =
  let x = Vec.zeros prep.m in
  for pos = 0 to i - 1 do
    let j = prep.order.(pos) in
    x.(j) <- t *. sign a.(j) *. l.(j)
  done;
  let tail2 = Float.max 0.0 (prep.a_norm2 -. prep.s_a2.(i)) in
  if tail2 > 1e-300 then begin
    let rad =
      Float.max 0.0 (((1.0 -. t) *. (1.0 -. t)) -. (t *. t *. prep.s_l2.(i)))
    in
    let scale = sqrt (rad /. tail2) in
    for pos = i to prep.m - 1 do
      let j = prep.order.(pos) in
      x.(j) <- scale *. a.(j)
    done
  end;
  x

(* Max over t of g_i by golden-section search on the feasible interval
   [0, 1/(1 + sqrt(S_l2 i))]; g_i is concave there.  Returns (value, t) and
   counts evaluations. *)
let maximize_over_t prep ~i ~evals =
  let t_hi = 1.0 /. (1.0 +. sqrt prep.s_l2.(i)) in
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  let lo = ref 0.0 and hi = ref t_hi in
  let f t =
    incr evals;
    g_value prep ~i ~t
  in
  let x1 = ref (!hi -. (phi *. (!hi -. !lo))) in
  let x2 = ref (!lo +. (phi *. (!hi -. !lo))) in
  let f1 = ref (f !x1) and f2 = ref (f !x2) in
  for _ = 1 to 64 do
    if !f1 < !f2 then begin
      lo := !x1;
      x1 := !x2;
      f1 := !f2;
      x2 := !lo +. (phi *. (!hi -. !lo));
      f2 := f !x2
    end
    else begin
      hi := !x2;
      x2 := !x1;
      f2 := !f1;
      x1 := !hi -. (phi *. (!hi -. !lo));
      f1 := f !x1
    end
  done;
  let t = (!lo +. !hi) /. 2.0 in
  (g_value prep ~i ~t, t)

let best_result ?accountant ~a ~l ~prep ~evals ~candidates () =
  let best = ref (0.0, 0.0, 0) in
  List.iter
    (fun i ->
      let _, t = maximize_over_t prep ~i ~evals in
      let x = candidate prep ~a ~l ~i ~t in
      if feasible ~l x then begin
        let value = Vec.dot a x in
        let bv, _, _ = !best in
        if value > bv then best := (value, t, i)
      end)
    candidates;
  let value, t, i = !best in
  let x = candidate prep ~a ~l ~i ~t in
  let rounds =
    match accountant with
    | Some acc ->
        (* Each evaluation is one threshold broadcast plus one aggregation
           of three partial sums. *)
        let start = Rounds.checkpoint acc in
        for _ = 1 to !evals do
          Rounds.charge_broadcast acc ~label:"mixed-ball-query" ~bits:64;
          Rounds.charge_broadcast acc ~label:"mixed-ball-sums" ~bits:(3 * 64)
        done;
        Rounds.checkpoint acc - start
    | None -> 0
  in
  { x; value; t; clamped = i; evaluations = !evals; rounds }

let brute_force ~a ~l () =
  let prep = prepare ~a ~l in
  let evals = ref 0 in
  best_result ~a ~l ~prep ~evals ~candidates:(List.init (prep.m + 1) Fun.id) ()

let maximize ?accountant ~a ~l () =
  let prep = prepare ~a ~l in
  let evals = ref 0 in
  (* Ternary search over the clamp count i (the restricted maxima are
     unimodal across the ordered intervals because g is concave), followed
     by a local sweep to absorb plateaus at the boundary. *)
  let value_at = Hashtbl.create 32 in
  let m_of i =
    match Hashtbl.find_opt value_at i with
    | Some v -> v
    | None ->
        let v, t = maximize_over_t prep ~i ~evals in
        let x = candidate prep ~a ~l ~i ~t in
        let v = if feasible ~l x then v else neg_infinity in
        Hashtbl.replace value_at i (v, t);
        (v, t)
  in
  let lo = ref 0 and hi = ref prep.m in
  while !hi - !lo > 3 do
    let m1 = !lo + ((!hi - !lo) / 3) in
    let m2 = !hi - ((!hi - !lo) / 3) in
    if fst (m_of m1) < fst (m_of m2) then lo := m1 + 1 else hi := m2 - 1
  done;
  let around = List.init (!hi - !lo + 1) (fun d -> !lo + d) in
  let extra = [ 0; prep.m ] in
  best_result ?accountant ~a ~l ~prep ~evals
    ~candidates:(List.sort_uniq Int.compare (around @ extra))
    ()
