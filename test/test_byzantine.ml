open Lbcc_util
module Model = Lbcc_net.Model
module Rounds = Lbcc_net.Rounds
module Fault = Lbcc_net.Fault
module Byzantine = Lbcc_net.Byzantine
module Gen = Lbcc_graph.Gen
module Bfs = Lbcc_dist.Bfs
module Sssp = Lbcc_dist.Sssp
module Leader = Lbcc_dist.Leader

let clique = Model.broadcast_congested_clique
let byz = Model.Byzantine_safe

(* A worst-tolerable adversary on [n] vertices: the first [f_max] vertices
   equivocate on [byz_prob] of their deliveries and forge their echoes. *)
let byz_faults ?(extra = 0) ?(byz_prob = 0.15) ~seed ~n () =
  let f = Fault.max_tolerated ~n + extra in
  Fault.create ~seed (Fault.spec ~byzantine:(List.init f Fun.id) ~byz_prob ())

(* ------------------------------------------------------------------ *)
(* Reliability tiers: conformance at f <= n/3                          *)

let test_byz_lossless_matches_raw () =
  let g = Gen.erdos_renyi_connected (Prng.create 3) ~n:8 ~p:0.4 ~w_max:4 in
  let base = Bfs.run ~model:clique ~graph:g ~source:0 () in
  let r = Bfs.run ~reliability:byz ~model:clique ~graph:g ~source:0 () in
  let diag = Option.get r.Bfs.byz in
  Alcotest.(check bool) "converged" true r.Bfs.converged;
  Alcotest.(check (array int)) "dist" base.Bfs.dist r.Bfs.dist;
  Alcotest.(check (array int)) "parent" base.Bfs.parent r.Bfs.parent;
  Alcotest.(check int) "same virtual supersteps" base.Bfs.supersteps
    r.Bfs.supersteps;
  Alcotest.(check bool) "diag ok" true (Byzantine.Diag.ok diag);
  Alcotest.(check int) "nobody suspected" 0 (List.length diag.suspected)

let test_byz_bfs_survives_equivocation () =
  let g = Gen.erdos_renyi_connected (Prng.create 5) ~n:10 ~p:0.4 ~w_max:4 in
  let base = Bfs.run ~model:clique ~graph:g ~source:4 () in
  List.iter
    (fun seed ->
      let faults = byz_faults ~seed ~n:10 () in
      let r = Bfs.run ~reliability:byz ~faults ~model:clique ~graph:g ~source:4 () in
      let diag = Option.get r.Bfs.byz in
      Alcotest.(check (array int)) "dist matches lossless" base.Bfs.dist r.Bfs.dist;
      Alcotest.(check bool) "diag ok" true (Byzantine.Diag.ok diag))
    [ 1; 2; 3 ]

let test_byz_sssp_survives_equivocation () =
  let g = Gen.erdos_renyi_connected (Prng.create 7) ~n:10 ~p:0.4 ~w_max:8 in
  let base = Sssp.run ~model:clique ~graph:g ~source:0 () in
  List.iter
    (fun seed ->
      let faults = byz_faults ~seed ~n:10 () in
      let r = Sssp.run ~reliability:byz ~faults ~model:clique ~graph:g ~source:0 () in
      let diag = Option.get r.Sssp.byz in
      Alcotest.(check bool) "dist matches lossless" true
        (Array.for_all2 Float.equal base.Sssp.dist r.Sssp.dist);
      Alcotest.(check bool) "diag ok" true (Byzantine.Diag.ok diag))
    [ 1; 2; 3 ]

let test_byz_leader_survives_equivocation () =
  let g = Gen.ring (Prng.create 11) ~n:13 in
  let base = Leader.run ~model:clique ~graph:g () in
  List.iter
    (fun seed ->
      let faults = byz_faults ~seed ~n:13 () in
      let r = Leader.run ~reliability:byz ~faults ~model:clique ~graph:g () in
      let diag = Option.get r.Leader.byz in
      Alcotest.(check int) "leader matches lossless" base.Leader.leader
        r.Leader.leader;
      Alcotest.(check bool) "diag ok" true (Byzantine.Diag.ok diag))
    [ 1; 2; 3 ]

(* The raw engine believes tampered payloads: the same adversary that the
   quorum tier absorbs visibly corrupts an unprotected run.  (The forged
   leader id is negative, so corruption is unambiguous.) *)
let test_byz_raw_run_is_corrupted () =
  let g = Gen.ring (Prng.create 11) ~n:13 in
  let corrupted =
    List.exists
      (fun seed ->
        let faults = byz_faults ~seed ~byz_prob:0.4 ~n:13 () in
        let r = Leader.run ~faults ~model:clique ~graph:g () in
        r.Leader.leader < 0)
      [ 1; 2; 3 ]
  in
  Alcotest.(check bool) "some raw run elects a forged id" true corrupted

(* ------------------------------------------------------------------ *)
(* Detection at f > n/3                                                *)

let test_byz_over_tolerance_detected () =
  let g = Gen.erdos_renyi_connected (Prng.create 5) ~n:10 ~p:0.4 ~w_max:4 in
  let faults = byz_faults ~extra:1 ~seed:1 ~n:10 () in
  let r = Bfs.run ~reliability:byz ~faults ~model:clique ~graph:g ~source:4 () in
  let diag = Option.get r.Bfs.byz in
  Alcotest.(check bool) "tolerance exceeded reported" true
    diag.Byzantine.Diag.tolerance_exceeded;
  Alcotest.(check bool) "detected, not silent" false (Byzantine.Diag.ok diag)

(* ------------------------------------------------------------------ *)
(* Accounting and determinism                                          *)

let test_byz_echo_label_charged () =
  let g = Gen.erdos_renyi_connected (Prng.create 3) ~n:8 ~p:0.4 ~w_max:4 in
  let acc = Rounds.create ~bandwidth:(Model.bandwidth ~n:8) in
  let faults = byz_faults ~seed:2 ~n:8 () in
  let _ =
    Bfs.run ~accountant:acc ~faults ~reliability:byz ~model:clique ~graph:g
      ~source:0 ()
  in
  let breakdown = Rounds.breakdown acc in
  Alcotest.(check bool) "bfs label" true (List.mem_assoc "bfs" breakdown);
  Alcotest.(check bool) "byz-echo label" true
    (List.mem_assoc "bfs/byz-echo" breakdown);
  Alcotest.(check bool) "quorum overhead visible" true
    (List.assoc "bfs/byz-echo" breakdown > List.assoc "bfs" breakdown)

let test_byz_runs_are_deterministic () =
  let g = Gen.erdos_renyi_connected (Prng.create 7) ~n:10 ~p:0.4 ~w_max:8 in
  let run () =
    let faults = byz_faults ~seed:3 ~n:10 () in
    let r = Sssp.run ~reliability:byz ~faults ~model:clique ~graph:g ~source:0 () in
    (r, Option.get r.Sssp.byz)
  in
  let a, da = run () and b, db = run () in
  Alcotest.(check bool) "identical states" true
    (Array.for_all2 Float.equal a.Sssp.dist b.Sssp.dist);
  Alcotest.(check int) "identical repair traffic"
    da.Byzantine.Diag.repairs_served db.Byzantine.Diag.repairs_served;
  Alcotest.(check int) "identical rounds" a.Sssp.rounds b.Sssp.rounds

let test_byz_rejects_non_clique () =
  let g = Gen.ring (Prng.create 1) ~n:7 in
  Alcotest.check_raises "needs the clique"
    (Invalid_argument "Byzantine.run: echo quorums need the clique topology")
    (fun () ->
      ignore
        (Bfs.run ~reliability:byz ~model:Model.broadcast_congest ~graph:g
           ~source:0 ()))

(* ------------------------------------------------------------------ *)
(* Tier dispatch                                                       *)

(* On lossless runs every tier must hand the program the same virtual
   supersteps, so outputs and superstep counts equal the raw tier's: all
   three protocols, both models, the Byzantine tier on the clique only. *)
let test_reliability_tier_dispatch () =
  List.iter
    (fun seed ->
      let g = Gen.erdos_renyi_connected (Prng.create seed) ~n:12 ~p:0.3 ~w_max:6 in
      List.iter
        (fun model ->
          let tiers =
            if model = clique then [ Model.None; Model.Crash_safe; byz ]
            else [ Model.None; Model.Crash_safe ]
          in
          let base_b = Bfs.run ~model ~graph:g ~source:0 () in
          let base_s = Sssp.run ~model ~graph:g ~source:0 () in
          let base_l = Leader.run ~model ~graph:g () in
          List.iter
            (fun reliability ->
              let what p =
                Printf.sprintf "seed %d %s %s %s" seed (Model.name model)
                  (Model.reliability_name reliability) p
              in
              let b = Bfs.run ~reliability ~model ~graph:g ~source:0 () in
              Alcotest.(check (array int)) (what "bfs dist") base_b.Bfs.dist b.Bfs.dist;
              Alcotest.(check (array int)) (what "bfs parent") base_b.Bfs.parent
                b.Bfs.parent;
              Alcotest.(check int) (what "bfs supersteps") base_b.Bfs.supersteps
                b.Bfs.supersteps;
              let s = Sssp.run ~reliability ~model ~graph:g ~source:0 () in
              Alcotest.(check bool) (what "sssp dist") true
                (Array.for_all2 Float.equal base_s.Sssp.dist s.Sssp.dist);
              Alcotest.(check (array int)) (what "sssp parent") base_s.Sssp.parent
                s.Sssp.parent;
              Alcotest.(check int) (what "sssp supersteps") base_s.Sssp.supersteps
                s.Sssp.supersteps;
              let l = Leader.run ~reliability ~model ~graph:g () in
              Alcotest.(check int) (what "leader") base_l.Leader.leader
                l.Leader.leader;
              Alcotest.(check int) (what "leader supersteps")
                base_l.Leader.supersteps l.Leader.supersteps;
              Alcotest.(check bool) (what "diagnostics only on the byzantine tier")
                (reliability = byz)
                (Option.is_some b.Bfs.byz);
              Alcotest.check_raises (what "patience 0 rejected")
                (Invalid_argument "Tier.run: patience must be >= 1")
                (fun () ->
                  ignore
                    (Bfs.run ~patience:0 ~reliability ~model ~graph:g ~source:0 ()
                      : Bfs.result)))
            tiers)
        [ Model.broadcast_congest; clique ])
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Fault-model properties (qcheck)                                     *)

let qcheck_budget_never_exceeded =
  QCheck.Test.make ~count:100 ~name:"adversarial_spent <= budget, monotone"
    QCheck.(
      triple (int_bound 5) (int_bound 30)
        (pair (float_bound_exclusive 0.9) (float_bound_exclusive 0.9)))
    (fun (budget, queries, (drop_prob, byz_prob)) ->
      let f =
        Fault.create ~seed:7
          (Fault.spec ~drop_prob ~adversarial_drops:budget
             ~byzantine:[ 0; 2 ] ~byz_prob ())
      in
      let ok = ref true in
      let last = ref 0 in
      for i = 0 to queries - 1 do
        ignore
          (Fault.copies f ~round:(1 + (i / 7)) ~src:(i mod 5) ~dst:(i mod 3)
            : int);
        let spent = Fault.adversarial_spent f in
        if spent < !last || spent > budget then ok := false;
        last := spent
      done;
      !ok)

let qcheck_tamper_is_pure =
  QCheck.Test.make ~count:100 ~name:"tamper verdicts independent of order"
    QCheck.(pair small_nat small_nat)
    (fun (seed, shift) ->
      let mk () =
        Fault.create ~seed:(1 + seed)
          (Fault.spec ~corrupt_prob:0.3 ~byzantine:[ 1 ] ~byz_prob:0.4 ())
      in
      let a = mk () and b = mk () in
      let slots = List.init 50 Fun.id in
      let probe f i =
        Fault.tamper f ~round:(1 + (i mod 5)) ~src:(i mod 4) ~dst:(i mod 7)
      in
      let rotated = List.filter (fun i -> i >= shift mod 50) slots
                    @ List.filter (fun i -> i < shift mod 50) slots in
      let va = List.map (probe a) slots in
      let vb = List.map (probe b) rotated in
      let sorted l = List.sort compare l in
      sorted (List.combine slots va)
      = sorted (List.combine rotated vb))

let qcheck_copies_duplicate_drop_disjoint =
  QCheck.Test.make ~count:100 ~name:"copies is always 0, 1 or 2"
    QCheck.(pair (float_bound_exclusive 0.9) (float_bound_exclusive 0.9))
    (fun (drop_prob, duplicate_prob) ->
      let f =
        Fault.create ~seed:3
          (Fault.spec ~drop_prob ~duplicate_prob ~adversarial_drops:2
             ~byzantine:[ 0 ] ~byz_prob:0.3 ())
      in
      List.for_all
        (fun i ->
          let c = Fault.copies f ~round:(1 + (i / 9)) ~src:(i mod 3) ~dst:(i mod 9) in
          c >= 0 && c <= 2)
        (List.init 120 Fun.id))

let suites =
  [
    ( "byzantine",
      [
        Alcotest.test_case "lossless matches raw engine" `Quick
          test_byz_lossless_matches_raw;
        Alcotest.test_case "bfs survives f<=n/3 equivocation" `Quick
          test_byz_bfs_survives_equivocation;
        Alcotest.test_case "sssp survives f<=n/3 equivocation" `Quick
          test_byz_sssp_survives_equivocation;
        Alcotest.test_case "leader survives f<=n/3 equivocation" `Quick
          test_byz_leader_survives_equivocation;
        Alcotest.test_case "raw run is corrupted" `Quick
          test_byz_raw_run_is_corrupted;
        Alcotest.test_case "f>n/3 detected" `Quick
          test_byz_over_tolerance_detected;
        Alcotest.test_case "byz-echo label charged" `Quick
          test_byz_echo_label_charged;
        Alcotest.test_case "runs are deterministic" `Quick
          test_byz_runs_are_deterministic;
        Alcotest.test_case "rejects non-clique models" `Quick
          test_byz_rejects_non_clique;
        Alcotest.test_case "reliability tier dispatch" `Quick
          test_reliability_tier_dispatch;
      ] );
    ( "byzantine.properties",
      [
        QCheck_alcotest.to_alcotest qcheck_budget_never_exceeded;
        QCheck_alcotest.to_alcotest qcheck_tamper_is_pure;
        QCheck_alcotest.to_alcotest qcheck_copies_duplicate_drop_disjoint;
      ] );
  ]
