(* Spanners with probabilistic edges in the Broadcast CONGEST model.

   Shows the Section 3.1 primitive directly: for several topologies and
   stretch parameters, compute a spanner as a genuine message-passing
   vertex program, report size / stretch / rounds, and demonstrate the
   implicit communication of sampling results ([views_agree]).

   Run with:  dune exec examples/spanner_demo.exe *)

open Lbcc_util
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Spanner = Lbcc_spanner.Spanner

let demo name g k p_value =
  let m = Graph.m g in
  let p = Array.make m p_value in
  let r = Spanner.run ~prng:(Prng.create 11) ~graph:g ~p ~k () in
  let out_deg = Spanner.out_degrees ~n:(Graph.n g) r.Spanner.orientation in
  (* Lemma 3.1 bounds the stretch over the surviving graph F+ ∪ E''. *)
  Printf.printf
    "%-22s n=%4d m=%5d k=%d p=%.2f | |F+|=%5d |F-|=%5d stretch=%.2f (bound %d) \
     rounds=%5d maxdeg+=%3d agree=%b\n"
    name (Graph.n g) m k p_value (List.length r.Spanner.fplus)
    (List.length r.Spanner.fminus)
    (Spanner.stretch g r)
    ((2 * k) - 1)
    r.Spanner.rounds
    (Array.fold_left Stdlib.max 0 out_deg)
    r.Spanner.views_agree

let () =
  Printf.printf "Baswana–Sen spanners with probabilistic edges (Section 3.1)\n\n";
  let p1 = Prng.create 1 in
  demo "complete graph" (Gen.complete p1 ~n:48 ~w_max:8) 2 1.0;
  demo "complete graph" (Gen.complete (Prng.create 1) ~n:48 ~w_max:8) 3 1.0;
  demo "dense ER" (Gen.erdos_renyi_connected (Prng.create 2) ~n:96 ~p:0.5 ~w_max:16) 3 1.0;
  demo "torus 12x12" (Gen.torus (Prng.create 3) ~rows:12 ~cols:12 ~w_max:4) 3 1.0;
  demo "geometric" (Gen.random_geometric (Prng.create 4) ~n:80 ~radius:0.35 ~w_max:8) 4 1.0;
  Printf.printf "\nwith ad-hoc sampling (each tried edge exists w.p. p):\n";
  demo "dense ER, p=0.75" (Gen.erdos_renyi_connected (Prng.create 5) ~n:96 ~p:0.5 ~w_max:16) 3 0.75;
  demo "dense ER, p=0.50" (Gen.erdos_renyi_connected (Prng.create 5) ~n:96 ~p:0.5 ~w_max:16) 3 0.5;
  demo "dense ER, p=0.25" (Gen.erdos_renyi_connected (Prng.create 5) ~n:96 ~p:0.5 ~w_max:16) 3 0.25;
  Printf.printf
    "\n'agree' certifies the paper's implicit communication: both endpoints\n\
     of every tried edge reached the same verdict without it ever being sent.\n"
