open Lbcc_util
module Vec = Lbcc_linalg.Vec
module Chebyshev = Lbcc_linalg.Chebyshev
module Graph = Lbcc_graph.Graph
module Rounds = Lbcc_net.Rounds
module Model = Lbcc_net.Model
module Sparsify = Lbcc_sparsifier.Sparsify
module Certify = Lbcc_sparsifier.Certify

(* The vertex-internal preconditioner solve in B = lambda_max * L_H is a
   dense LU factorization of L_H: exact, O(n^3) to build and O(n^2)
   memory.  It operates on mean-centered right-hand sides (the Laplacian
   kernel is span(1)). *)
type t = {
  graph : Graph.t;
  sparsifier : Graph.t;
  factor : Exact.t;
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

type workspace = { h_scratch : Exact.t; centered : Vec.t }

(* Nest [with_phase] for each label in order, so callers can relabel the
   accountant paths ("solve/preprocess" by default, "prepare" for the
   service layer) without touching the charges themselves. *)
let rec with_phases acc phases f =
  match phases with
  | [] -> f ()
  | p :: rest -> Rounds.with_phase acc p (fun () -> with_phases acc rest f)

let preprocess ?accountant ?(phases = [ "solve"; "preprocess" ]) ?t ?k
    ?sparsifier ~prng ~graph () =
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
        (Sparsify.run ~accountant:acc ?t ?k ~prng ~graph ~epsilon:0.5 ())
          .Sparsify.sparsifier
  in
  (* The sparsifier preserves connectivity of the input (each bundle begins
     with a spanner of the surviving edges), so factoring cannot fail.
     Both steps are vertex-internal: their phases charge no rounds and
     show up only as trace spans. *)
  let factor = Rounds.with_phase acc "factor" (fun () -> Exact.factor h) in
  let cert = Rounds.with_phase acc "certify" (fun () -> Certify.bound graph h) in
  (* Rescale the preconditioner so the pencil (L_G, B) has top eigenvalue
     exactly 1: B := lambda_max * L_H, kappa := lambda_max / lambda_min.
     (With the paper's eps_H = 1/2 this is the kappa = 3 of Cor. 2.4.)
     The certificate proves 0 < lambda_min <= lambda_max, or raises. *)
  let lambda_max = cert.Certify.lambda_max in
  let kappa = lambda_max /. cert.Certify.lambda_min *. 1.05 in
  {
    graph;
    sparsifier = h;
    factor;
    kappa;
    lambda_max;
    preprocessing_rounds = Rounds.checkpoint acc - start;
    bandwidth;
  }

let sparsifier t = t.sparsifier
let kappa t = t.kappa
let preprocessing_rounds t = t.preprocessing_rounds

let workspace t =
  { h_scratch = Exact.clone_scratch t.factor; centered = Vec.zeros (Graph.n t.graph) }

let solve ?accountant ?(phases = [ "solve" ]) ?workspace t ~b ~eps =
  if not (eps > 0.0) then invalid_arg "Solver.solve: eps must be positive";
  let ws =
    match workspace with
    | Some w ->
        if Vec.dim w.centered <> Graph.n t.graph then
          invalid_arg "Solver.solve: workspace dimension mismatch";
        w
    | None -> { h_scratch = t.factor; centered = Vec.zeros (Graph.n t.graph) }
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
  let solve_b r z =
    Vec.mean_center_into r ws.centered;
    Exact.solve_into ws.h_scratch ws.centered z;
    Vec.scale_into (1.0 /. t.lambda_max) z z
  in
  let result = Chebyshev.solve ~matvec ~solve_b ~kappa:t.kappa ~eps ~b () in
  {
    solution = result.Chebyshev.solution;
    iterations = result.Chebyshev.iterations;
    rounds = Rounds.checkpoint acc - start;
    bits = Rounds.checkpoint_bits acc - start_bits;
    residual = Exact.residual t.graph ~x:result.Chebyshev.solution ~b;
  }
