open Lbcc_util
module Vec = Lbcc_linalg.Vec
module Dense = Lbcc_linalg.Dense
module Sparse = Lbcc_linalg.Sparse
module Rounds = Lbcc_net.Rounds
module Payload = Lbcc_net.Payload
module Problem = Lbcc_lp.Problem
module Ipm = Lbcc_lp.Ipm
module Gremban = Lbcc_laplacian.Gremban

type constants = {
  mtilde_c : float;
  lambda_c : float;
  perturb : bool;
}

let default_constants = { mtilde_c = 8.0; lambda_c = 16.0; perturb = true }

type instance = {
  net : Network.t;
  problem : Problem.t;
  x0 : Vec.t;
  qtilde : Vec.t;
  n_lp : int;
  m_lp : int;
}

let column_of_vertex_raw ~source v =
  if v = source then invalid_arg "Mcmf_lp: the source has no LP column"
  else if v < source then v
  else v - 1

(* Test-only, checked by "flow.lp column mapping" (test_flow.ml); slated
   for deletion with it. *)
(* lbcc-lint: allow typ-dead-export *)
let column_of_vertex inst v = column_of_vertex_raw ~source:inst.net.Network.source v

let build ?(constants = default_constants) ~prng (net : Network.t) =
  let nv = net.Network.n and ne = Network.m net in
  let source = net.Network.source and sink = net.Network.sink in
  let mm = float_of_int (Stdlib.max (Network.max_capacity net) (Network.max_cost net)) in
  let nef = float_of_int ne and nvf = float_of_int nv in
  let mtilde = constants.mtilde_c *. nef *. nef *. (mm ** 3.0) in
  let lambda = constants.lambda_c *. nvf *. mtilde *. mm in
  let n_lp = nv - 1 in
  let m_lp = ne + (2 * n_lp) + 1 in
  let col = column_of_vertex_raw ~source in
  (* A = [B I -I -e_t]^T: row e of A is the incidence column of arc e. *)
  let triplets = ref [] in
  Array.iteri
    (fun e (a : Network.arc) ->
      if a.dst <> source then triplets := (e, col a.dst, 1.0) :: !triplets;
      if a.src <> source then triplets := (e, col a.src, -1.0) :: !triplets)
    net.Network.arcs;
  for i = 0 to n_lp - 1 do
    triplets := (ne + i, i, 1.0) :: !triplets;
    triplets := (ne + n_lp + i, i, -1.0) :: !triplets
  done;
  triplets := (ne + (2 * n_lp), col sink, -1.0) :: !triplets;
  let a = Sparse.of_triplets ~rows:m_lp ~cols:n_lp !triplets in
  (* Perturbed costs: q~_e = q_e + i / (4 E^2 M^2), i uniform in [1, 2EM]. *)
  let denom = 4.0 *. nef *. nef *. mm *. mm in
  let qtilde =
    Array.map
      (fun (arc : Network.arc) ->
        let base = float_of_int arc.cost in
        if constants.perturb then
          base +. (float_of_int (1 + Prng.int prng (Stdlib.max 1 (int_of_float (2.0 *. nef *. mm)))) /. denom)
        else base)
      net.Network.arcs
  in
  let c_lp =
    Vec.init m_lp (fun i ->
        if i < ne then qtilde.(i)
        else if i < ne + (2 * n_lp) then lambda
        else -2.0 *. nvf *. mtilde)
  in
  let slack_hi = 4.0 *. nvf *. mm in
  let lo = Array.make m_lp 0.0 in
  let hi =
    Array.init m_lp (fun i ->
        if i < ne then float_of_int net.Network.arcs.(i).capacity
        else if i < ne + (2 * n_lp) then slack_hi
        else 2.0 *. nvf *. mm)
  in
  let problem = Problem.make ~a ~b:(Vec.zeros n_lp) ~c:c_lp ~lo ~hi in
  (* The explicit interior point of Section 5. *)
  let f0 = nvf *. mm in
  let bc2 = Vec.zeros n_lp in
  Array.iter
    (fun (arc : Network.arc) ->
      let half = float_of_int arc.capacity /. 2.0 in
      if arc.dst <> source then bc2.(col arc.dst) <- bc2.(col arc.dst) +. half;
      if arc.src <> source then bc2.(col arc.src) <- bc2.(col arc.src) -. half)
    net.Network.arcs;
  let x0 =
    Vec.init m_lp (fun i ->
        if i < ne then float_of_int net.Network.arcs.(i).capacity /. 2.0
        else if i < ne + n_lp then begin
          let v = i - ne in
          (2.0 *. nvf *. mm)
          -. Float.min 0.0 bc2.(v)
          +. (if v = col sink then f0 else 0.0)
        end
        else if i < ne + (2 * n_lp) then begin
          let v = i - ne - n_lp in
          (2.0 *. nvf *. mm) +. Float.max 0.0 bc2.(v)
        end
        else f0)
  in
  { net; problem; x0; qtilde; n_lp; m_lp }

(* Lemma 5.1: the normal matrix is SDD with nonpositive off-diagonals;
   assemble it over the non-source vertices.  Each call is charged the
   paper's T(n,m) = O~(log M).  [backend] selects how the SDD system is
   solved numerically: [`Gremban] doubles into a Laplacian exactly as the
   paper does (exercised by tests and the pipeline example); [`Direct]
   factors the SDD matrix itself — same system, but the doubling squares
   the conditioning gap of extreme IPM iterates, so the hot path uses the
   direct form (DESIGN.md, substitution 4). *)
let laplacian_normal_solver ?accountant ?(backend = `Direct) inst =
  let net = inst.net in
  let ne = Network.m net in
  let n_lp = inst.n_lp in
  let source = net.Network.source and sink = net.Network.sink in
  let col = column_of_vertex_raw ~source in
  ignore accountant;
  let bandwidth = Lbcc_net.Model.bandwidth ~n:net.Network.n in
  (* Declared per-call cost, charged by the caller (the IPM): one
     high-precision Laplacian solve on the doubled virtual graph —
     O(sqrt(3) log(1/eps)) Chebyshev iterations, each a vector exchange,
     doubled for the two simulated copies (Lemma 5.1). *)
  let declared_rounds =
    let iters = Lbcc_linalg.Chebyshev.iterations_bound ~kappa:3.0 ~eps:1e-9 in
    let per_iter = 2 * Stdlib.max 1 (Bits.ceil_div (Bits.float_bits ()) bandwidth) in
    iters * per_iter
  in
  (* Prepared workspaces, allocated once per operator and reused by every
     IPM iteration's solve: the normal-matrix buffer and the floored
     diagonal.  The IPM drives the solver sequentially, so reuse is safe. *)
  let m_mat = Dense.create n_lp n_lp in
  let d_floored = Array.make inst.m_lp 0.0 in
  let solve ~d ~rhs =
    (* Relative floor on the diagonal scaling: entries that underflow to
       zero (coordinates numerically on the boundary) would otherwise zero
       out a row of the normal matrix. *)
    let dmax = Array.fold_left Float.max 0.0 d in
    let floor_v = 1e-120 *. Float.max dmax 1e-300 in
    Array.iteri (fun i x -> d_floored.(i) <- Float.max x floor_v) d;
    let d = d_floored in
    Dense.fill m_mat 0.0;
    (* B D1 B^T *)
    Array.iteri
      (fun e (arc : Network.arc) ->
        let d1 = d.(e) in
        let cu = if arc.src <> source then Some (col arc.src) else None in
        let cv = if arc.dst <> source then Some (col arc.dst) else None in
        (match cu with Some u -> Dense.add_entry m_mat u u d1 | None -> ());
        (match cv with Some v -> Dense.add_entry m_mat v v d1 | None -> ());
        match (cu, cv) with
        | Some u, Some v ->
            Dense.add_entry m_mat u v (-.d1);
            Dense.add_entry m_mat v u (-.d1)
        | _ -> ())
      net.Network.arcs;
    (* D2 + D3 *)
    for i = 0 to n_lp - 1 do
      Dense.add_entry m_mat i i (d.(ne + i) +. d.(ne + n_lp + i))
    done;
    (* e_t D4 e_t^T *)
    Dense.add_entry m_mat (col sink) (col sink) d.(ne + (2 * n_lp));
    (* One step of iterative refinement: the IPM hands us normal matrices
       whose entries span ~30 orders of magnitude, where a single solve
       loses digits the path following cannot afford. *)
    let solve_once =
      match backend with
      | `Gremban -> Gremban.solve m_mat
      | `Direct ->
          let f = Dense.factorize m_mat in
          Dense.solve_factored f
    in
    let s = solve_once rhs in
    let resid = Vec.sub rhs (Dense.matvec m_mat s) in
    if Vec.norm2 resid > 1e-12 *. Float.max 1.0 (Vec.norm2 rhs) then
      Vec.add s (solve_once resid)
    else s
  in
  { Problem.solve; rounds = declared_rounds }

let extract inst v =
  let ne = Network.m inst.net in
  (Array.sub v 0 ne, v.(inst.m_lp - 1))

let round_flow inst v =
  let flows, _ = extract inst v in
  let ne = Network.m inst.net in
  let mm =
    float_of_int
      (Stdlib.max (Network.max_capacity inst.net) (Network.max_cost inst.net))
  in
  let nef = float_of_int ne in
  let mtilde = 8.0 *. nef *. nef *. (mm ** 3.0) in
  let eps_hat = 1.0 /. (40.0 *. nef *. nef *. mtilde *. mm) in
  Array.map (fun fe -> Float.round ((1.0 -. eps_hat) *. fe)) flows

type solve_result = {
  flow : float array;
  value : int;
  cost : int;
  feasible : bool;
  matches_baseline : bool;
  iterations : int;
  rounds : int;
  lp_objective : float;
}

(* One-time instance broadcast: every vertex announces its incident arcs
   (endpoints, capacity, perturbed cost) so the LP instance is globally
   known before the IPM starts; the superstep costs the largest per-vertex
   message.  Charged once under "prepare/flow-instance". *)
let charge_instance acc (net : Network.t) =
  let nv = net.Network.n in
  let out_deg = Array.make nv 0 in
  Array.iter
    (fun (a : Network.arc) -> out_deg.(a.src) <- out_deg.(a.src) + 1)
    net.Network.arcs;
  let max_deg = Array.fold_left Stdlib.max 1 out_deg in
  let arc_bits =
    Payload.size
      [
        Payload.Vertex_id nv;
        Payload.Vertex_id nv;
        Payload.Int (Network.max_capacity net);
        Payload.Int (Network.max_cost net);
      ]
  in
  Rounds.charge_vector acc ~entries:max_deg ~label:"flow-instance"
    ~entry_bits:arc_bits

let solve ?accountant ?(config = Ipm.default_config) ?constants ?eps ~prng net =
  let acc =
    match accountant with
    | Some a -> a
    | None ->
        Rounds.create ~bandwidth:(Lbcc_net.Model.bandwidth ~n:net.Network.n)
  in
  Rounds.with_phase acc "mcmf" @@ fun () ->
  (* Prepare phase, paid once: build the LP instance, broadcast it, and set
     up the normal-operator workspaces.  Every IPM iteration afterwards
     charges only query-phase normal solves. *)
  let inst, solver =
    Rounds.with_phase acc "prepare" @@ fun () ->
    let inst = build ?constants ~prng net in
    charge_instance acc net;
    (inst, laplacian_normal_solver ~accountant:acc inst)
  in
  let mm =
    float_of_int (Stdlib.max (Network.max_capacity net) (Network.max_cost net))
  in
  let eps = match eps with Some e -> e | None -> 1.0 /. (12.0 *. mm) in
  let x_lp, trace =
    Ipm.lp_solve ~accountant:acc ~config ~prng ~problem:inst.problem ~solver
      ~x0:inst.x0 ~eps ()
  in
  let flow = round_flow inst x_lp in
  let feasible = Network.is_flow net flow in
  let value = int_of_float (Network.flow_value net flow) in
  let cost = int_of_float (Network.flow_cost net flow) in
  let baseline = Mcmf.solve net in
  let matches_baseline =
    feasible && value = baseline.Mcmf.value && cost = baseline.Mcmf.cost
  in
  {
    flow;
    value;
    cost;
    feasible;
    matches_baseline;
    iterations = trace.Ipm.iterations;
    rounds = Rounds.rounds acc;
    lp_objective = Problem.objective inst.problem x_lp;
  }
