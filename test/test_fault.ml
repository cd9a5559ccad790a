open Lbcc_util
module Model = Lbcc_net.Model
module Rounds = Lbcc_net.Rounds
module Engine = Lbcc_net.Engine
module Fault = Lbcc_net.Fault
module Reliable = Lbcc_net.Reliable
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Paths = Lbcc_graph.Paths
module Bfs = Lbcc_dist.Bfs
module Sssp = Lbcc_dist.Sssp
module Leader = Lbcc_dist.Leader
module Lbcc = Lbcc_core.Lbcc
module Resilient = Lbcc_core.Resilient

(* ------------------------------------------------------------------ *)
(* Fault model: determinism and the individual fault types             *)

(* A counter from the summary [Fault.pp] prints, e.g. [dropped=12]. *)
let fault_count f name =
  let s = Format.asprintf "%a" Fault.pp f and key = name ^ "=" in
  let rec find i =
    if String.sub s i (String.length key) = key then i + String.length key
    else find (i + 1)
  in
  Scanf.sscanf (String.sub s (find 0) (String.length s - find 0)) "%d" Fun.id

let test_fault_same_seed_same_schedule () =
  let mk () = Fault.create ~seed:42 (Fault.spec ~drop_prob:0.3 ~duplicate_prob:0.1 ()) in
  let a = mk () and b = mk () in
  (* Query b in reverse order: decisions must not depend on query order. *)
  let slots = List.init 200 Fun.id in
  let fate f i = Fault.copies f ~round:(1 + (i mod 7)) ~src:(i mod 5) ~dst:(i / 5) in
  let fa = List.map (fate a) slots in
  let fb = List.rev_map (fate b) (List.rev slots) in
  Alcotest.(check (list int)) "identical schedule" fa fb;
  Alcotest.(check bool) "some drops happened" true (fault_count a "dropped" > 0);
  Alcotest.(check bool) "some duplicates happened" true
    (fault_count a "duplicated" > 0)

let test_fault_seed_changes_schedule () =
  let fate seed =
    let f = Fault.create ~seed (Fault.spec ~drop_prob:0.3 ()) in
    List.init 100 (fun i -> Fault.copies f ~round:1 ~src:0 ~dst:i)
  in
  Alcotest.(check bool) "different seeds differ" true (fate 1 <> fate 2)

let test_fault_crash_schedule () =
  let f = Fault.create ~seed:1 (Fault.spec ~crashes:[ (3, 5); (1, 2) ] ()) in
  Alcotest.(check bool) "not crashed before" false (Fault.crashed f ~vertex:3 ~round:4);
  Alcotest.(check bool) "crashed at" true (Fault.crashed f ~vertex:3 ~round:5);
  Alcotest.(check bool) "crashed after" true (Fault.crashed f ~vertex:3 ~round:9);
  Alcotest.(check bool) "other vertex" true (Fault.crashed f ~vertex:1 ~round:2);
  Alcotest.(check bool) "uncrashed vertex" false (Fault.crashed f ~vertex:0 ~round:100)

let test_fault_adversarial_budget () =
  let f = Fault.create ~seed:1 (Fault.spec ~adversarial_drops:3 ()) in
  let fates = List.init 10 (fun i -> Fault.copies f ~round:1 ~src:0 ~dst:i) in
  Alcotest.(check (list int)) "first three destroyed"
    [ 0; 0; 0; 1; 1; 1; 1; 1; 1; 1 ] fates;
  Alcotest.(check int) "budget spent" 3 (Fault.adversarial_spent f)

let test_fault_rejects_bad_spec () =
  Alcotest.check_raises "bad prob"
    (Invalid_argument "Fault.create: drop_prob must be in [0, 1)") (fun () ->
      ignore (Fault.create (Fault.spec ~drop_prob:1.0 ())));
  Alcotest.check_raises "bad budget"
    (Invalid_argument "Fault.create: adversarial_drops must be >= 0") (fun () ->
      ignore (Fault.create (Fault.spec ~adversarial_drops:(-1) ())))

(* The engine queries [tamper] once per surviving delivery of a faulty
   run: the coin and the salt must not build a generator, so only a
   tampered verdict's [Some] allocates. *)
let test_fault_tamper_allocation () =
  let f = Fault.create ~seed:5 (Fault.spec ~corrupt_prob:0.1 ()) in
  let tampered = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    match Fault.tamper f ~round:(1 + (i / 100)) ~src:(i mod 100) ~dst:(i / 7) with
    | Some _ -> incr tampered
    | None -> ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "some deliveries tampered" true
    (!tampered > 500 && !tampered < 1500);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for %d tampered of 10000" words !tampered)
    true
    (words <= float_of_int ((2 * !tampered) + 64))

(* ------------------------------------------------------------------ *)
(* Engine: honest termination and fault threading                      *)

let never_halt_program g ~max_supersteps () =
  Engine.run ~model:Model.broadcast_congest ~graph:g
    ~size_bits:(fun () -> 1)
    ~init:(fun _ -> ())
    ~step:(fun ~round:_ ~vertex:_ s _ -> (s, Some (), true))
    ~max_supersteps ()

let test_engine_reports_timeout () =
  let g = Gen.ring (Prng.create 1) ~n:4 in
  let _, stats = never_halt_program g ~max_supersteps:5 () in
  Alcotest.(check bool) "not converged" false stats.Engine.converged;
  Alcotest.(check int) "ran to the cap" 5 stats.Engine.supersteps;
  let r = Bfs.run ~model:Model.broadcast_congest ~graph:g ~source:0 () in
  Alcotest.(check bool) "bfs converges" true r.Bfs.converged

let test_engine_crash_stops_vertex () =
  (* Clique BFS with the source crashed at superstep 1: the wave never
     starts, the other vertices wait until the cap — and the engine now
     says so instead of pretending the run finished. *)
  let g = Gen.ring (Prng.create 2) ~n:8 in
  let faults = Fault.create ~seed:1 (Fault.spec ~crashes:[ (0, 1) ] ()) in
  let r = Bfs.run ~faults ~model:Model.broadcast_congested_clique ~graph:g ~source:0 () in
  Alcotest.(check bool) "truncated, reported honestly" false r.Bfs.converged;
  Array.iteri
    (fun v d -> if v <> 0 then Alcotest.(check int) "unreached" max_int d)
    r.Bfs.dist

let test_engine_drops_are_deterministic () =
  let g = Gen.erdos_renyi_connected (Prng.create 3) ~n:16 ~p:0.3 ~w_max:4 in
  let run () =
    let faults = Fault.create ~seed:7 (Fault.spec ~drop_prob:0.4 ()) in
    Sssp.run ~faults ~model:Model.broadcast_congest ~graph:g ~source:0 ()
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical lossy runs" true
    (a.Sssp.dist = b.Sssp.dist && a.Sssp.supersteps = b.Sssp.supersteps)

(* ------------------------------------------------------------------ *)
(* Reliable broadcast: lossless equivalence, lossy recovery            *)

let lossy_spec =
  Fault.spec ~drop_prob:0.2 ~duplicate_prob:0.05 ()

let test_reliable_lossless_matches_engine () =
  let g = Gen.erdos_renyi_connected (Prng.create 4) ~n:18 ~p:0.2 ~w_max:6 in
  let plain = Bfs.run ~model:Model.broadcast_congest ~graph:g ~source:0 () in
  let rel = Bfs.run ~reliability:Model.Crash_safe ~model:Model.broadcast_congest ~graph:g ~source:0 () in
  Alcotest.(check (array int)) "distances" plain.Bfs.dist rel.Bfs.dist;
  Alcotest.(check (array int)) "parents" plain.Bfs.parent rel.Bfs.parent;
  Alcotest.(check int) "virtual supersteps = lossless supersteps"
    plain.Bfs.supersteps rel.Bfs.supersteps

let test_reliable_bfs_recovers_from_drops () =
  let g = Gen.erdos_renyi_connected (Prng.create 5) ~n:20 ~p:0.2 ~w_max:4 in
  let plain = Bfs.run ~model:Model.broadcast_congest ~graph:g ~source:0 () in
  let faults = Fault.create ~seed:11 lossy_spec in
  let rel = Bfs.run ~reliability:Model.Crash_safe ~faults ~model:Model.broadcast_congest ~graph:g ~source:0 () in
  Alcotest.(check bool) "converged" true rel.Bfs.converged;
  Alcotest.(check (array int)) "distances" plain.Bfs.dist rel.Bfs.dist;
  Alcotest.(check (array int)) "parents" plain.Bfs.parent rel.Bfs.parent;
  Alcotest.(check int) "virtual supersteps" plain.Bfs.supersteps rel.Bfs.supersteps;
  Alcotest.(check bool) "drops actually happened" true
    (fault_count faults "dropped" > 0)

let test_reliable_sssp_recovers_from_drops () =
  let g = Gen.erdos_renyi_connected (Prng.create 6) ~n:16 ~p:0.25 ~w_max:9 in
  let plain = Sssp.run ~model:Model.broadcast_congest ~graph:g ~source:0 () in
  let faults = Fault.create ~seed:12 lossy_spec in
  let rel = Sssp.run_reliable ~faults ~model:Model.broadcast_congest ~graph:g ~source:0 () in
  Alcotest.(check bool) "converged" true rel.Sssp.converged;
  Array.iteri
    (fun v d ->
      Alcotest.(check (float 1e-12)) (Printf.sprintf "dist %d" v) plain.Sssp.dist.(v) d)
    rel.Sssp.dist;
  Alcotest.(check int) "virtual supersteps" plain.Sssp.supersteps rel.Sssp.supersteps;
  let expect = Paths.dijkstra g ~src:0 in
  Array.iteri
    (fun v d -> Alcotest.(check (float 1e-9)) "matches dijkstra" expect.(v) d)
    rel.Sssp.dist

let test_reliable_leader_recovers_from_drops () =
  List.iter
    (fun model ->
      let g = Gen.erdos_renyi_connected (Prng.create 7) ~n:20 ~p:0.2 ~w_max:1 in
      let plain = Leader.run ~model ~graph:g () in
      let faults = Fault.create ~seed:13 lossy_spec in
      let rel = Leader.run ~reliability:Model.Crash_safe ~faults ~model ~graph:g () in
      Alcotest.(check bool) "converged" true rel.Leader.converged;
      Alcotest.(check int) "same leader" plain.Leader.leader rel.Leader.leader;
      Alcotest.(check int) "virtual supersteps" plain.Leader.supersteps
        rel.Leader.supersteps)
    [ Model.broadcast_congest; Model.broadcast_congested_clique ]

let test_reliable_with_crash_matches_lossless () =
  (* Acceptance scenario: drop_prob = 0.2 plus one injected crash.  Vertex
     23 (distance 1 from the source on the ring) settles within a few
     virtual rounds; crashing it at real superstep 30 hits the protocol
     mid-flight, its neighbors suspect it and heal, and every vertex —
     including the crashed one, whose inner state was already final —
     reports exactly the lossless answer. *)
  let g = Gen.ring (Prng.create 8) ~n:24 in
  let plain = Bfs.run ~model:Model.broadcast_congest ~graph:g ~source:0 () in
  let faults =
    Fault.create ~seed:14 (Fault.spec ~drop_prob:0.2 ~crashes:[ (23, 30) ] ())
  in
  let rel =
    Bfs.run ~reliability:Model.Crash_safe ~faults ~patience:20
      ~model:Model.broadcast_congest ~graph:g ~source:0 ()
  in
  Alcotest.(check bool) "converged" true rel.Bfs.converged;
  Alcotest.(check (array int)) "distances" plain.Bfs.dist rel.Bfs.dist

let test_reliable_retransmit_label_charged () =
  let g = Gen.erdos_renyi_connected (Prng.create 9) ~n:16 ~p:0.25 ~w_max:4 in
  let acc = Rounds.create ~bandwidth:(Model.bandwidth ~n:16) in
  let faults = Fault.create ~seed:15 lossy_spec in
  let _ =
    Bfs.run ~reliability:Model.Crash_safe ~accountant:acc ~faults
      ~model:Model.broadcast_congest ~graph:g ~source:0 ()
  in
  let breakdown = Rounds.breakdown acc in
  Alcotest.(check bool) "bfs label" true (List.mem_assoc "bfs" breakdown);
  Alcotest.(check bool) "retransmit label" true
    (List.mem_assoc "bfs/retransmit" breakdown);
  Alcotest.(check bool) "retransmission cost visible" true
    (List.assoc "bfs/retransmit" breakdown > 0)

(* ------------------------------------------------------------------ *)
(* Resilient wrappers                                                  *)

let test_resilient_sparsify_ok () =
  let g = Gen.erdos_renyi_connected (Prng.create 10) ~n:48 ~p:0.3 ~w_max:8 in
  let o = Resilient.sparsify ~seed:1 ~epsilon:0.9 g in
  Alcotest.(check string) "ok" "ok" (Resilient.verdict_string o.Resilient.verdict);
  Alcotest.(check bool) "has value" true (o.Resilient.value <> None);
  Alcotest.(check bool) "attempt recorded" true (List.length o.Resilient.attempts >= 1);
  (match o.Resilient.attempts with
  | a :: _ ->
      Alcotest.(check bool) "first attempt uses the caller seed" true
        (a.Resilient.attempt_seed = 1);
      Alcotest.(check bool) "rounds accounted" true (a.Resilient.rounds > 0)
  | [] -> Alcotest.fail "no attempts")

let test_resilient_sparsify_recovers_from_bad_certification () =
  let g = Gen.erdos_renyi_connected (Prng.create 11) ~n:40 ~p:0.3 ~w_max:8 in
  (* Inject a failed certification on the first attempt; the wrapper must
     retry with a fresh split seed and succeed. *)
  let calls = ref 0 in
  let accept (r : Lbcc.sparsifier_result) =
    incr calls;
    !calls > 1 && Float.is_finite r.Lbcc.epsilon_achieved
  in
  let o = Resilient.sparsify ~seed:1 ~epsilon:0.9 ~max_retries:3 ~accept g in
  Alcotest.(check string) "recovered" "ok" (Resilient.verdict_string o.Resilient.verdict);
  Alcotest.(check int) "two attempts" 2 (List.length o.Resilient.attempts);
  (match o.Resilient.attempts with
  | [ first; second ] ->
      Alcotest.(check bool) "first rejected" false first.Resilient.accepted;
      Alcotest.(check bool) "second accepted" true second.Resilient.accepted;
      Alcotest.(check bool) "fresh seed on retry" true
        (second.Resilient.attempt_seed <> first.Resilient.attempt_seed)
  | _ -> Alcotest.fail "expected exactly two attempts")

let test_resilient_degraded_when_budget_exhausted () =
  let g = Gen.erdos_renyi_connected (Prng.create 12) ~n:32 ~p:0.3 ~w_max:8 in
  let o = Resilient.sparsify ~seed:1 ~epsilon:0.9 ~max_retries:1
            ~accept:(fun _ -> false) g in
  Alcotest.(check string) "degraded" "degraded"
    (Resilient.verdict_string o.Resilient.verdict);
  Alcotest.(check bool) "still returns best value" true (o.Resilient.value <> None);
  Alcotest.(check int) "budget respected" 2 (List.length o.Resilient.attempts)

let test_resilient_failed_when_all_raise () =
  (* A disconnected graph makes solve_laplacian raise on every attempt. *)
  let g =
    Graph.create ~n:4 [ { Graph.u = 0; v = 1; w = 1.0 }; { u = 2; v = 3; w = 1.0 } ]
  in
  let b = [| 1.0; -1.0; 0.0; 0.0 |] in
  let o = Resilient.solve_laplacian ~seed:1 ~max_retries:1 g ~b in
  Alcotest.(check string) "failed" "failed"
    (Resilient.verdict_string o.Resilient.verdict);
  Alcotest.(check bool) "no value" true (o.Resilient.value = None);
  List.iter
    (fun a -> Alcotest.(check bool) "attempt rejected" false a.Resilient.accepted)
    o.Resilient.attempts

let test_resilient_solve_and_flow_ok () =
  let g = Gen.erdos_renyi_connected (Prng.create 13) ~n:24 ~p:0.3 ~w_max:4 in
  let prng = Prng.create 99 in
  let b =
    Lbcc_linalg.Vec.mean_center
      (Lbcc_linalg.Vec.init 24 (fun _ -> Prng.gaussian prng))
  in
  let o = Resilient.solve_laplacian ~seed:1 ~eps:1e-6 g ~b in
  Alcotest.(check string) "solve ok" "ok"
    (Resilient.verdict_string o.Resilient.verdict);
  let net = Lbcc_flow.Network.random (Prng.create 14) ~n:8 ~density:0.3
              ~max_capacity:6 ~max_cost:5 in
  let o = Resilient.min_cost_max_flow ~seed:1 net in
  Alcotest.(check string) "flow ok" "ok"
    (Resilient.verdict_string o.Resilient.verdict);
  (match o.Resilient.value with
  | Some r -> Alcotest.(check bool) "exact" true r.Lbcc.exact
  | None -> Alcotest.fail "flow returned no value")

let suites =
  [
    ( "fault.model",
      [
        Alcotest.test_case "same seed, same schedule" `Quick
          test_fault_same_seed_same_schedule;
        Alcotest.test_case "seed changes schedule" `Quick
          test_fault_seed_changes_schedule;
        Alcotest.test_case "crash schedule" `Quick test_fault_crash_schedule;
        Alcotest.test_case "adversarial budget" `Quick test_fault_adversarial_budget;
        Alcotest.test_case "rejects bad spec" `Quick test_fault_rejects_bad_spec;
        Alcotest.test_case "tamper allocates only its verdict" `Quick
          test_fault_tamper_allocation;
      ] );
    ( "fault.engine",
      [
        Alcotest.test_case "reports timeout" `Quick test_engine_reports_timeout;
        Alcotest.test_case "crash stops a vertex" `Quick test_engine_crash_stops_vertex;
        Alcotest.test_case "lossy runs deterministic" `Quick
          test_engine_drops_are_deterministic;
      ] );
    ( "fault.reliable",
      [
        Alcotest.test_case "lossless matches engine" `Quick
          test_reliable_lossless_matches_engine;
        Alcotest.test_case "bfs recovers from drops" `Quick
          test_reliable_bfs_recovers_from_drops;
        Alcotest.test_case "sssp recovers from drops" `Quick
          test_reliable_sssp_recovers_from_drops;
        Alcotest.test_case "leader recovers from drops" `Quick
          test_reliable_leader_recovers_from_drops;
        Alcotest.test_case "crash + drops match lossless" `Quick
          test_reliable_with_crash_matches_lossless;
        Alcotest.test_case "retransmit label charged" `Quick
          test_reliable_retransmit_label_charged;
      ] );
    ( "fault.resilient",
      [
        Alcotest.test_case "sparsify ok" `Quick test_resilient_sparsify_ok;
        Alcotest.test_case "recovers from bad certification" `Quick
          test_resilient_sparsify_recovers_from_bad_certification;
        Alcotest.test_case "degraded on exhausted budget" `Quick
          test_resilient_degraded_when_budget_exhausted;
        Alcotest.test_case "failed when all attempts raise" `Quick
          test_resilient_failed_when_all_raise;
        Alcotest.test_case "solve + flow ok" `Quick test_resilient_solve_and_flow_ok;
      ] );
  ]
