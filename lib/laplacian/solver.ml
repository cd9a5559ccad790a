open Lbcc_util
module Vec = Lbcc_linalg.Vec
module Chebyshev = Lbcc_linalg.Chebyshev
module Cg = Lbcc_linalg.Cg
module Graph = Lbcc_graph.Graph
module Rounds = Lbcc_net.Rounds
module Model = Lbcc_net.Model
module Sparsify = Lbcc_sparsifier.Sparsify
module Certify = Lbcc_sparsifier.Certify

(* The vertex-internal preconditioner solve in B = lambda_max * L_H.  [P_lu]
   is the historical dense LU factorization — exact, O(n^3) to build and
   O(n^2) memory, fine up to a few thousand vertices.  [P_cg] solves each
   B z = r on demand by Jacobi-preconditioned CG over the *sparse* L_H to a
   tolerance far below the outer Chebyshev accuracy, so it is exact for the
   outer iteration's purposes while needing only O(m_H) memory — the
   backend that makes the n = 8192 SCALE pipeline feasible.  Both operate
   on mean-centered right-hand sides (the Laplacian kernel is span(1)). *)
type precond =
  | P_lu of Exact.t
  | P_cg of { h : Graph.t; inv_diag : Vec.t; tol : float; max_iter : int }

type t = {
  graph : Graph.t;
  sparsifier : Graph.t;
  precond : precond;
  kappa : float;
  lambda_max : float; (* of the pencil (L_G, L_H): scale for the preconditioner *)
  preprocessing_rounds : int;
  bandwidth : int;
}

type solve_result = {
  solution : Vec.t;
  iterations : int;
  rounds : int;
  bits : int;
  residual : float;
}

type scratch = S_lu of Exact.t | S_cg
type workspace = { h_scratch : scratch; centered : Vec.t }

(* Jacobi inverse diagonal of L_H: 1 / weighted degree.  H is connected
   (the sparsifier preserves connectivity), so every degree is positive;
   the guard only covers degenerate single-vertex graphs. *)
let jacobi_inv_diag h =
  let d = Vec.zeros (Graph.n h) in
  Array.iter
    (fun (e : Graph.edge) ->
      d.(e.u) <- d.(e.u) +. e.w;
      d.(e.v) <- d.(e.v) +. e.w)
    (Graph.edges h);
  Vec.map (fun x -> if x > 0.0 then 1.0 /. x else 0.0) d

(* Nest [with_phase] for each label in order, so callers can relabel the
   accountant paths ("solve/preprocess" by default, "prepare" for the
   service layer) without touching the charges themselves. *)
let rec with_phases acc phases f =
  match phases with
  | [] -> f ()
  | p :: rest -> Rounds.with_phase acc p (fun () -> with_phases acc rest f)

let preprocess ?accountant ?(phases = [ "solve"; "preprocess" ]) ?t ?t_scale ?k
    ?certify ?(backend = `Lu) ?sparsifier ~prng ~graph () =
  if not (Graph.is_connected graph) then
    invalid_arg "Solver.preprocess: graph must be connected";
  let n = Graph.n graph in
  let bandwidth = Model.bandwidth ~n in
  let acc =
    match accountant with Some a -> a | None -> Rounds.create ~bandwidth
  in
  let start = Rounds.checkpoint acc in
  with_phases acc phases @@ fun () ->
  let h =
    match sparsifier with
    | Some h ->
        (* Externally maintained H (an incremental Sparsify.sketch): the
           caller already paid its broadcast rounds, so only the
           vertex-internal factor + certify steps remain here. *)
        if Graph.n h <> n then
          invalid_arg "Solver.preprocess: sparsifier vertex count mismatch";
        if not (Graph.is_connected h) then
          invalid_arg "Solver.preprocess: sparsifier must be connected";
        h
    | None ->
        (Sparsify.run ~accountant:acc ?t ?t_scale ?k ~prng ~graph
           ~epsilon:0.5 ())
          .Sparsify.sparsifier
  in
  (* The sparsifier preserves connectivity of the input (each bundle begins
     with a spanner of the surviving edges), so factoring cannot fail. *)
  let precond =
    match backend with
    | `Lu -> P_lu (Exact.factor h)
    | `Cg ->
        P_cg
          {
            h;
            inv_diag = jacobi_inv_diag h;
            tol = 1e-10;
            max_iter = 20 * Stdlib.max 1 n;
          }
  in
  let certify =
    match certify with
    | Some c -> c
    | None -> if n <= 400 then `Exact else `Power 60
  in
  let cert =
    match certify with
    | `Exact -> Certify.exact graph h
    | `Power iters -> Certify.power (Prng.split prng) graph h ~iters
    | `Probe s -> Certify.probe (Prng.split prng) graph h ~samples:s
  in
  (* Rescale the preconditioner so the pencil (L_G, B) has top eigenvalue
     exactly 1: B := lambda_max * L_H, kappa := lambda_max / lambda_min.
     (With the paper's eps_H = 1/2 this is the kappa = 3 of Cor. 2.4.)
     Power/probe certificates approximate the extremes from inside, so
     widen them before trusting A <= B. *)
  let margin = match certify with `Exact -> 1.0 | `Power _ | `Probe _ -> 1.15 in
  let lambda_min = Float.max (cert.Certify.lambda_min /. margin) 1e-12 in
  let lambda_max = Float.max (cert.Certify.lambda_max *. margin) lambda_min in
  let kappa = Float.max 1.0 (lambda_max /. lambda_min) *. 1.05 in
  {
    graph;
    sparsifier = h;
    precond;
    kappa;
    lambda_max;
    preprocessing_rounds = Rounds.checkpoint acc - start;
    bandwidth;
  }

let sparsifier t = t.sparsifier
let kappa t = t.kappa
let preprocessing_rounds t = t.preprocessing_rounds

let workspace t =
  {
    h_scratch =
      (match t.precond with
      | P_lu f -> S_lu (Exact.clone_scratch f)
      | P_cg _ -> S_cg);
    centered = Vec.zeros (Graph.n t.graph);
  }

let solve ?accountant ?(phases = [ "solve" ]) ?workspace t ~b ~eps =
  if eps <= 0.0 then invalid_arg "Solver.solve: eps must be positive";
  let ws =
    match workspace with
    | Some w ->
        if Vec.dim w.centered <> Graph.n t.graph then
          invalid_arg "Solver.solve: workspace dimension mismatch";
        w
    | None ->
        {
          h_scratch =
            (match t.precond with P_lu f -> S_lu f | P_cg _ -> S_cg);
          centered = Vec.zeros (Graph.n t.graph);
        }
  in
  let acc =
    match accountant with
    | Some a -> a
    | None -> Rounds.create ~bandwidth:t.bandwidth
  in
  let start = Rounds.checkpoint acc in
  let start_bits = Rounds.checkpoint_bits acc in
  with_phases acc phases @@ fun () ->
  (* Each Chebyshev iteration: one distributed L_G-matvec (a vector
     exchange: every vertex broadcasts its O(log(nU/eps))-bit coordinate)
     and one vertex-internal L_H solve (free). *)
  let matvec x y =
    Rounds.charge_vector acc ~label:"laplacian-matvec" ~entry_bits:(Bits.float_bits ());
    Graph.apply_laplacian_into t.graph x y
  in
  (* B = lambda_max * L_H; solving B z = r needs zero-sum r: residuals of
     Laplacian systems with zero-sum b stay zero-sum. *)
  let solve_b =
    match (t.precond, ws.h_scratch) with
    | P_lu _, S_lu scratch ->
        fun r z ->
          Vec.mean_center_into r ws.centered;
          Exact.solve_into scratch ws.centered z;
          Vec.scale_into (1.0 /. t.lambda_max) z z
    | P_cg { h; inv_diag; tol; max_iter }, S_cg ->
        (* The preconditioner output is projected back onto the zero-sum
           space (Jacobi scaling leaves it), so CG never wanders along the
           Laplacian kernel; the inner tolerance is far below the outer
           Chebyshev accuracy, making the operator effectively exact and —
           crucially for determinism — a fixed function of its input. *)
        let matvec_h x y = Graph.apply_laplacian_into h x y in
        let precond x y =
          Vec.mul_into inv_diag x y;
          Vec.mean_center_into y y
        in
        fun r z ->
          Vec.mean_center_into r ws.centered;
          let sol =
            (Cg.solve_preconditioned ~max_iter ~tol ~matvec:matvec_h ~precond
               ~b:ws.centered ())
              .Cg.solution
          in
          Vec.mean_center_into sol z;
          Vec.scale_into (1.0 /. t.lambda_max) z z
    | P_lu _, S_cg | P_cg _, S_lu _ ->
        invalid_arg "Solver.solve: workspace from a different backend"
  in
  let result = Chebyshev.solve ~matvec ~solve_b ~kappa:t.kappa ~eps ~b () in
  {
    solution = result.Chebyshev.solution;
    iterations = result.Chebyshev.iterations;
    rounds = Rounds.checkpoint acc - start;
    bits = Rounds.checkpoint_bits acc - start_bits;
    residual = Exact.residual t.graph ~x:result.Chebyshev.solution ~b;
  }
