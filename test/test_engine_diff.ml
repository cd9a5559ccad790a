(* Differential harness: run_soa vs. the generic engine (DESIGN.md §10).

   The struct-of-arrays entry point Engine.run_soa reimplements the
   generic Engine.run's delivery order, fault replay, charging and timeout
   on flat int columns.  This suite pins that equivalence: one BFS program,
   written once against each interface, produces bit-identical
   fingerprints (distances, parents, rounds, supersteps, messages, bits,
   convergence and the accountant's breakdown) under plain Engine.run at
   one domain and under run_soa at 1, 2 and 4 domains, across 10 seeds,
   clique and input-graph topologies, and three fault tiers (lossless,
   seeded drops/duplicates/tampering, and crashes with adversarial
   drops). *)

open Lbcc_util
module Fp = Lbcc_testfp.Fp
module Graph = Lbcc_graph.Graph
module Model = Lbcc_net.Model
module Fault = Lbcc_net.Fault
module Engine = Lbcc_net.Engine
module Rounds = Lbcc_net.Rounds

(* The same BFS both ways: the exact step semantics of Lbcc_dist.Bfs
   (adopt the FIRST — lowest-id — announcer, announce the new distance in
   the same superstep, halt one superstep after announcing; an unreached
   vertex stays live until the cap), written once against the generic
   ('state, int) interface and once as a run_soa step over flat Vstate
   columns.  The tamper transform matches Lbcc_dist.Bfs too, so the fault
   tiers corrupt payloads identically. *)
let tamper ~salt d = d lxor (1 lor (salt land 0x7))

let cap n = 2 * (n + 1)

let fingerprint_of ~dist ~parent (stats : Engine.stats) acc =
  Printf.sprintf "%s|%s|%d|%d|%d|%d|%b|%s" (Fp.ints dist) (Fp.ints parent)
    stats.Engine.rounds stats.Engine.supersteps stats.Engine.messages_sent
    stats.Engine.total_bits stats.Engine.converged (Fp.acct_fp acc)

let soa_fingerprint ~model ~graph ~faults ~source =
  let n = Graph.n graph in
  let vs = Lbcc_net.Vstate.create ~n in
  let dist = Lbcc_net.Vstate.ints ~init:max_int vs "dist" in
  let parent = Lbcc_net.Vstate.ints ~init:(-1) vs "parent" in
  let announced = Lbcc_net.Vstate.bytes vs "announced" in
  dist.(source) <- 0;
  let step ~round:_ ~vertex (ib : Engine.soa_inbox) (out : Engine.soa_out) =
    if dist.(vertex) < max_int then
      if Bytes.get announced vertex <> '\000' then false
      else begin
        Bytes.set announced vertex '\001';
        out.Engine.send <- true;
        out.Engine.value <- dist.(vertex);
        true
      end
    else if ib.Engine.count > 0 then begin
      let d = ib.Engine.payloads.(0) + 1 in
      dist.(vertex) <- d;
      parent.(vertex) <- ib.Engine.senders.(0);
      Bytes.set announced vertex '\001';
      out.Engine.send <- true;
      out.Engine.value <- d;
      true
    end
    else true
  in
  let acc = Rounds.create ~bandwidth:16 in
  let stats =
    Engine.run_soa ~accountant:acc ?faults ~tamper ~label:"soa-bfs" ~model
      ~graph
      ~size_bits:(fun d -> Bits.int_bits d)
      ~step ~max_supersteps:(cap n) ()
  in
  fingerprint_of ~dist ~parent stats acc

let run_fingerprint ~model ~graph ~faults ~source =
  let n = Graph.n graph in
  let init v = if v = source then (0, -1, false) else (max_int, -1, false) in
  let step ~round:_ ~vertex:_ (d, p, announced) inbox =
    if d < max_int then
      if announced then ((d, p, announced), None, false)
      else ((d, p, true), Some d, true)
    else
      match inbox with
      | (sender, dm) :: _ -> ((dm + 1, sender, true), Some (dm + 1), true)
      | [] -> ((d, p, announced), None, true)
  in
  let acc = Rounds.create ~bandwidth:16 in
  let states, stats =
    Engine.run ~accountant:acc ?faults ~tamper ~label:"soa-bfs" ~model ~graph
      ~size_bits:(fun d -> Bits.int_bits d)
      ~init ~step ~max_supersteps:(cap n) ()
  in
  let dist = Array.map (fun (d, _, _) -> d) states in
  let parent = Array.map (fun (_, p, _) -> p) states in
  fingerprint_of ~dist ~parent stats acc

let fault_tiers =
  [
    ("lossless", fun _ -> None);
    ("faulty", fun seed -> Some (Fp.faults_of seed));
    ( "crashy",
      fun seed ->
        Some
          (Fault.create ~seed
             (Fault.spec ~drop_prob:0.1 ~duplicate_prob:0.2
                ~crashes:[ (2, 3); (7, 5) ] ~adversarial_drops:3 ())) );
  ]

let test_soa (tier, faults_of) () =
  Pool.set_default_domains 1;
  List.iter
    (fun (mname, model) ->
      List.iter
        (fun seed ->
          let graph = Fp.graph_of seed in
          let expected =
            run_fingerprint ~model ~graph ~faults:(faults_of seed) ~source:0
          in
          List.iter
            (fun d ->
              Pool.set_default_domains d;
              let got =
                soa_fingerprint ~model ~graph ~faults:(faults_of seed)
                  ~source:0
              in
              Alcotest.(check string)
                (Printf.sprintf "soa-bfs %s %s seed=%d domains=%d" mname tier
                   seed d)
                expected got)
            [ 1; 2; 4 ];
          Pool.set_default_domains 1)
        Fp.seeds)
    [
      ("clique", Model.broadcast_congested_clique);
      ("input-graph", Model.broadcast_congest);
    ]

let suites =
  [
    ( "engine-diff",
      List.map
        (fun (tier, faults_of) ->
          Alcotest.test_case
            (Printf.sprintf "soa bfs %s run=soa" tier)
            `Quick
            (test_soa (tier, faults_of)))
        fault_tiers );
  ]
