(* Electrical flows on a power-grid-like network.

   The first application of the Laplacian paradigm: treating a weighted
   graph as a resistor network (conductance = edge weight) and answering
   potential / effective-resistance / current queries by solving
   [L x = b].  We build a distribution-grid-shaped graph (a 2D mesh with a
   few long-distance "transmission" shortcuts), inject current at a
   generator corner and extract at a far consumer, and compare the
   distributed solver's answer with the exact factorization.

   A grid operator asks many such questions about ONE network, so this is
   the natural home for the prepared API: [Prepared.create] pays the
   Theorem 1.3 preprocessing (sparsify + factor + certify) once, and every
   potential or effective-resistance query after that costs only the
   query-phase rounds.

   Run with:  dune exec examples/electrical_grid.exe *)

module Graph = Lbcc_graph.Graph
module Vec = Lbcc_linalg.Vec
module Exact = Lbcc_laplacian.Exact
module Solver = Lbcc_laplacian.Solver
module Prepared = Lbcc_service.Prepared
module Ctx = Lbcc_service.Ctx
open Lbcc_util

let grid_with_transmission prng ~rows ~cols ~shortcuts =
  let base = Lbcc_graph.Gen.grid prng ~rows ~cols ~w_max:4 in
  let n = rows * cols in
  let extra =
    List.init shortcuts (fun _ ->
        let u = Prng.int prng n in
        let rec pick () =
          let v = Prng.int prng n in
          if v = u then pick () else v
        in
        (* High-conductance long-range line. *)
        { Graph.u; v = pick (); w = 16.0 })
  in
  let edges = Array.to_list (Graph.edges base) @ extra in
  (* Drop accidental duplicates of existing mesh edges. *)
  let seen = Hashtbl.create 64 in
  let edges =
    List.filter
      (fun (e : Graph.edge) ->
        let key = (min e.u e.v, max e.u e.v) in
        if Hashtbl.mem seen key || e.u = e.v then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      edges
  in
  Graph.create ~n edges

let () =
  let rows = 8 and cols = 8 in
  let prng = Prng.create 99 in
  let g = grid_with_transmission prng ~rows ~cols ~shortcuts:6 in
  let n = Graph.n g in
  Printf.printf "power grid: %dx%d mesh + transmission lines, n=%d m=%d\n" rows
    cols n (Graph.m g);

  let generator = 0 and consumer = n - 1 in
  let b = Vec.zeros n in
  b.(generator) <- 1.0;
  b.(consumer) <- -1.0;

  (* Prepare the operator once (Theorem 1.3 preprocessing). *)
  let p = Prepared.create ~ctx:(Ctx.make ~seed:5 ()) ~t:8 g in
  let solver = Prepared.solver p in
  Printf.printf "sparsifier: m=%d of %d, certified kappa=%.2f\n"
    (Graph.m (Solver.sparsifier solver))
    (Graph.m g) (Solver.kappa solver);
  Printf.printf "prepare: %d rounds paid once (handle %s)\n"
    (Prepared.preprocessing_rounds p)
    (Prepared.fingerprint_hex p);

  (* First query against the handle: the generator->consumer potential. *)
  let r = Prepared.solve ~eps:1e-10 p ~b in
  Printf.printf "solve: %d iterations, %d rounds, residual %.2e\n"
    r.Prepared.iterations r.Prepared.rounds r.Prepared.residual;

  (* Compare with the exact direct solve. *)
  let x = r.Prepared.solution in
  let x_exact = Exact.solve_graph g b in
  let rel_err = Vec.dist2 x x_exact /. Vec.norm2 x_exact in
  Printf.printf "agreement with direct factorization: %.2e relative error\n" rel_err;

  let reff = x.(generator) -. x.(consumer) in
  Printf.printf "\neffective resistance generator->consumer: %.4f ohm\n" reff;

  (* Many more resistance queries on the SAME handle: no re-preprocessing,
     each costs only the query phase. *)
  let probes =
    [ (0, cols - 1); (0, (rows - 1) * cols); (cols - 1, n - 1); (n / 2, n - 1) ]
  in
  Printf.printf "\nresistance probes on the prepared handle:\n";
  List.iter
    (fun (s, t) ->
      let reff, q = Prepared.effective_resistance p ~s ~t in
      Printf.printf "  R_eff(%2d,%2d) = %.4f ohm  (%d query rounds)\n" s t reff
        q.Prepared.rounds)
    probes;
  Printf.printf
    "handle totals: %d queries, %d prepare + %d query rounds, amortized %.1f \
     rounds/query\n"
    (Prepared.queries p)
    (Prepared.preprocessing_rounds p)
    (Prepared.query_rounds p)
    (Prepared.amortized_rounds_per_query p);

  (* Current on each line: i = w * (potential difference); check that the
     generator injects exactly one unit (Kirchhoff). *)
  let injected =
    List.fold_left
      (fun acc (u, eid) ->
        let e = Graph.edge g eid in
        acc +. (e.Graph.w *. (x.(generator) -. x.(u))))
      0.0
      (Graph.neighbors g generator)
  in
  Printf.printf "net current out of the generator: %.6f (should be 1)\n" injected;

  (* The five most loaded lines. *)
  let loads =
    Array.mapi
      (fun i (e : Graph.edge) -> (Float.abs (e.w *. (x.(e.u) -. x.(e.v))), i, e))
      (Graph.edges g)
  in
  Array.sort (fun (a, _, _) (b, _, _) -> compare b a) loads;
  Printf.printf "\nmost loaded lines:\n";
  Array.iteri
    (fun rank (load, _, (e : Graph.edge)) ->
      if rank < 5 then
        Printf.printf "  %d-%d  conductance=%.0f  current=%.4f\n" e.u e.v e.w load)
    loads
