module Vec = Lbcc_linalg.Vec

(* Calibrated constants (DESIGN.md, substitution 5).  [step_scale]
   multiplies the homotopy step [h]; the paper's value is [p^2(4-p)/2^20]
   per unit of [min(2,p)/sqrt(n log(m e^2/n))]. *)
let step_scale = 0.25
let max_fixed_point_iters = 200

(* sigma(W^{1/2 - 1/p} M) given a leverage oracle for row-scaled M. *)
let scaled_sigma ~leverage ~p w =
  let expo = 0.5 -. (1.0 /. p) in
  let d = Vec.map (fun wi -> Float.max wi 1e-300 ** expo) w in
  leverage d

let residual ~leverage ~p w =
  let sigma = scaled_sigma ~leverage ~p w in
  let dev = Vec.map2 (fun wi si -> Float.abs (si -. wi) /. Float.max wi 1e-300) w sigma in
  Vec.max_elt dev

let fixed_point ~leverage ~p ~w0 ~eta =
  let w = ref (Vec.copy w0) in
  let iters = ref 0 in
  let continue_ = ref true in
  let prev_dev = ref infinity in
  while !continue_ && !iters < max_fixed_point_iters do
    let sigma = scaled_sigma ~leverage ~p !w in
    (* Cohen–Peng contractive update: w <- sigma^{p/2} w^{1-p/2}
       (a contraction in log space with factor |1 - p/2| for p < 4);
       plain w <- sigma diverges for p < 2. *)
    let next =
      Vec.map2
        (fun wi si ->
          let si = Float.max si 1e-300 and wi = Float.max wi 1e-300 in
          Float.max 1e-12 ((si ** (p /. 2.0)) *. (wi ** (1.0 -. (p /. 2.0)))))
        !w sigma
    in
    (* Movement-based stopping: rows whose weight sits at the numerical
       floor (coordinates pinned to the boundary) keep a unit *relative*
       residual forever; what the IPM needs is that the iterate has
       stopped moving, which bounds the distance to the fixed point via
       the contraction factor. *)
    let dev =
      Vec.max_elt (Vec.map2 (fun wi ni -> Float.abs (log (ni /. wi))) !w next)
    in
    w := next;
    incr iters;
    (* Converged, or the movement has plateaued: weights floored at the
       numerical boundary can sustain a small limit cycle, and once the
       movement stops contracting further iterations buy nothing. *)
    if dev <= eta /. 2.0 then continue_ := false
    else if !iters > 3 && dev >= 0.8 *. !prev_dev then continue_ := false;
    prev_dev := dev
  done;
  (!w, !iters)

let compute_apx_weights ~leverage ~p ~w0 ~eta =
  (* Algorithm 7 with the paper's shape: damped step toward the fixed point,
     clamped to a multiplicative trust region around the warm start. *)
  let damping = Float.max 4.0 (8.0 /. p) in
  let r = Float.min 0.5 (p *. p *. (4.0 -. p) /. 16.0) in
  let t =
    let n = float_of_int (Vec.dim w0) in
    Stdlib.max 2
      (Stdlib.min max_fixed_point_iters
         (int_of_float
            (Float.ceil (4.0 *. ((p /. 2.0) +. (2.0 /. p)) *. log (n /. Float.min 0.5 eta)))))
  in
  let lo = Vec.scale (1.0 -. r) w0 and hi = Vec.scale (1.0 +. r) w0 in
  let w = ref (Vec.copy w0) in
  let iters = ref 0 in
  for _j = 1 to t - 1 do
    incr iters;
    let sigma = scaled_sigma ~leverage ~p !w in
    let next = Vec.copy !w in
    for i = 0 to Vec.dim next - 1 do
      let wi = Float.max !w.(i) 1e-300 in
      let cand = wi -. ((w0.(i) -. (w0.(i) /. wi *. sigma.(i))) /. damping) in
      next.(i) <- Float.min hi.(i) (Float.max lo.(i) cand)
    done;
    w := next
  done;
  (!w, !iters)

let compute_initial_weights ~leverage_for ~m ~n ~p_target ~eta =
  if p_target <= 0.0 || p_target > 2.0 then
    invalid_arg "Lewis.compute_initial_weights: p_target must be in (0, 2]";
  (* p = 2: Lewis weights are exactly the leverage scores. *)
  let w =
    ref
      (Vec.map
         (fun si -> Float.max si 1e-12)
         (leverage_for ~p:2.0 (Vec.ones m)))
  in
  let p = ref 2.0 in
  let steps = ref 0 in
  let nf = float_of_int n and mf = float_of_int m in
  let denom = sqrt (nf *. log ((mf *. Float.exp 2.0 /. nf) +. Float.exp 1.0)) in
  while !p <> p_target do
    incr steps;
    let h = step_scale *. Float.min 2.0 !p /. denom in
    let p_new =
      if !p > p_target then Float.max p_target (!p -. h)
      else Float.min p_target (!p +. h)
    in
    (* Warm start: w^{p_new / p} per Algorithm 8. *)
    let w0 = Vec.map (fun wi -> Float.max wi 1e-300 ** (p_new /. !p)) !w in
    let leverage = leverage_for ~p:p_new in
    let w', _ =
      fixed_point ~leverage ~p:p_new ~w0 ~eta:(Float.max eta 0.05)
    in
    w := w';
    p := p_new
  done;
  let leverage = leverage_for ~p:p_target in
  let w_final, _ = fixed_point ~leverage ~p:p_target ~w0:!w ~eta in
  (w_final, !steps)

let regularized w ~n ~m =
  let c0 = float_of_int n /. (2.0 *. float_of_int m) in
  Vec.map (fun wi -> wi +. c0) w
