open Lbcc_util
module Model = Lbcc_net.Model
module Rounds = Lbcc_net.Rounds
module Payload = Lbcc_net.Payload
module Engine = Lbcc_net.Engine
module Fault = Lbcc_net.Fault
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen

(* ------------------------------------------------------------------ *)
(* Model / payload                                                     *)

let test_model_names () =
  Alcotest.(check string) "bcc" "Broadcast Congested Clique"
    (Model.name Model.broadcast_congested_clique);
  Alcotest.(check string) "bc" "Broadcast CONGEST" (Model.name Model.broadcast_congest)

let test_model_bandwidth () =
  Alcotest.(check int) "n=1024" 20 (Model.bandwidth ~n:1024);
  Alcotest.(check bool) "grows" true (Model.bandwidth ~n:4096 > Model.bandwidth ~n:16)

let test_payload_sizes () =
  Alcotest.(check int) "vertex id n=256" 8 (Payload.size [ Vertex_id 256 ]);
  Alcotest.(check bool) "weight integral small" true
    (Payload.size [ Weight 5.0 ] < Payload.size [ Weight 5.5 ]);
  Alcotest.(check int) "fractional weight costs a double" 64
    (Payload.size [ Weight 5.5 ]);
  Alcotest.(check int) "empty still 1 bit" 1 (Payload.size [])

let test_payload_weight_bits () =
  Alcotest.(check int) "w=1" (Payload.weight_bits 1.0) (1 + 1);
  Alcotest.(check int) "w=1024" (Payload.weight_bits 1024.0) (1 + 11)

(* ------------------------------------------------------------------ *)
(* Rounds accountant                                                   *)

let test_rounds_charging () =
  let acc = Rounds.create ~bandwidth:10 in
  Rounds.charge acc ~label:"a" ~rounds:3;
  Rounds.charge_broadcast acc ~label:"b" ~bits:25;
  (* ceil(25/10) = 3 *)
  Alcotest.(check int) "total" 6 (Rounds.rounds acc);
  Alcotest.(check (list (pair string int))) "breakdown" [ ("a", 3); ("b", 3) ]
    (Rounds.breakdown acc)

let test_rounds_small_message_one_round () =
  let acc = Rounds.create ~bandwidth:16 in
  Rounds.charge_broadcast acc ~label:"x" ~bits:1;
  Alcotest.(check int) "at least one round" 1 (Rounds.rounds acc)

let test_rounds_rejects_bad () =
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Rounds.create: bandwidth must be >= 1") (fun () ->
      ignore (Rounds.create ~bandwidth:0))

let sum_snd l = List.fold_left (fun s (_, v) -> s + v) 0 l

let test_rounds_breakdown_sums () =
  let acc = Rounds.create ~bandwidth:10 in
  Rounds.charge ~bits:7 acc ~label:"b" ~rounds:2;
  let cp = Rounds.checkpoint acc in
  Rounds.charge_broadcast acc ~label:"a" ~bits:25;
  Alcotest.(check int) "checkpoint difference" 3 (Rounds.rounds acc - cp);
  Rounds.with_phase acc "p" (fun () ->
      Rounds.charge_vector acc ~label:"v" ~entry_bits:12;
      Rounds.charge_broadcast acc ~label:"a" ~bits:4);
  Rounds.charge acc ~label:"b" ~rounds:1;
  Alcotest.(check int) "breakdown sums to rounds" (Rounds.rounds acc)
    (sum_snd (Rounds.breakdown acc));
  Alcotest.(check int) "bits breakdown sums to bits" (Rounds.bits acc)
    (sum_snd (Rounds.bits_breakdown acc));
  Alcotest.(check (list string)) "first-charge label order"
    [ "b"; "a"; "p/v"; "p/a" ]
    (List.map fst (Rounds.breakdown acc));
  Alcotest.(check (list string)) "bits breakdown shares the order"
    (List.map fst (Rounds.breakdown acc))
    (List.map fst (Rounds.bits_breakdown acc))

(* Regression: charge_vector once under-counted multi-coordinate exchanges by
   charging entry_bits regardless of how many coordinates each vertex holds;
   ~entries must multiply both the bits and the round cost. *)
let test_rounds_charge_vector_entries () =
  let acc = Rounds.create ~bandwidth:10 in
  Rounds.charge_vector acc ~label:"v" ~entry_bits:4;
  Alcotest.(check int) "one entry, one round" 1 (Rounds.rounds acc);
  Alcotest.(check int) "one entry bits" 4 (Rounds.bits acc);
  let acc = Rounds.create ~bandwidth:10 in
  Rounds.charge_vector ~entries:8 acc ~label:"v" ~entry_bits:4;
  Alcotest.(check int) "entries multiply bits" 32 (Rounds.bits acc);
  Alcotest.(check int) "rounds = ceil(32/10)" 4 (Rounds.rounds acc);
  Alcotest.check_raises "entries >= 1"
    (Invalid_argument "Rounds.charge_vector: entries must be >= 1") (fun () ->
      Rounds.charge_vector ~entries:0 acc ~label:"v" ~entry_bits:1)

let test_rounds_tree () =
  let acc = Rounds.create ~bandwidth:10 in
  Rounds.with_phase acc "solve" (fun () ->
      Rounds.charge acc ~label:"setup" ~rounds:2;
      Rounds.with_phase acc "inner" (fun () ->
          Rounds.charge_broadcast acc ~label:"x" ~bits:25));
  match Rounds.tree acc with
  | [ { Rounds.label = "solve"; t_rounds = 5; t_bits = 25;
        children =
          [ { Rounds.label = "setup"; t_rounds = 2; _ };
            { Rounds.label = "inner"; t_rounds = 3; children = [ _ ]; _ } ] } ] ->
      ()
  | forest ->
      Alcotest.fail
        (Format.asprintf "unexpected tree shape (%d roots)" (List.length forest))

(* ------------------------------------------------------------------ *)
(* Engine: a BFS vertex program                                        *)

type bfs_state = { dist : int option }

let bfs_program graph model =
  let n = Graph.n graph in
  let init v = { dist = (if v = 0 then Some 0 else None) } in
  let step ~round ~vertex:_ state inbox =
    match state.dist with
    | Some d ->
        (* The root announces in the first superstep and halts. *)
        if round = 1 then (state, Some d, false) else (state, None, false)
    | None -> (
        if Engine.Inbox.length inbox = 0 then (state, None, true)
        else
          (* Learn, announce immediately, halt. *)
          let d' = Engine.Inbox.message inbox 0 + 1 in
          ({ dist = Some d' }, Some d', false))
  in
  Engine.run ~model ~graph ~size_bits:(fun d -> Bits.int_bits d) ~init ~step
    ~max_supersteps:(2 * n) ()

let test_engine_bfs_distances () =
  let prng = Prng.create 21 in
  let g = Gen.ring prng ~n:8 in
  let states, _ = bfs_program g Model.broadcast_congest in
  let hops = Lbcc_graph.Paths.bfs_hops g ~src:0 in
  Array.iteri
    (fun v st ->
      match st.dist with
      | Some d -> Alcotest.(check int) (Printf.sprintf "dist %d" v) hops.(v) d
      | None -> Alcotest.fail "vertex never reached")
    states

let test_engine_bfs_rounds_ring_vs_clique () =
  let prng = Prng.create 22 in
  let g = Gen.ring prng ~n:16 in
  let _, bc = bfs_program g Model.broadcast_congest in
  let _, bcc = bfs_program g Model.broadcast_congested_clique in
  (* In the clique the wave reaches everyone in O(1) hops regardless of the
     ring structure. *)
  Alcotest.(check bool) "clique much faster" true (bcc.Engine.supersteps < bc.Engine.supersteps)

let test_engine_charges_accountant () =
  let prng = Prng.create 24 in
  let g = Gen.ring prng ~n:8 in
  let acc = Rounds.create ~bandwidth:(Model.bandwidth ~n:8) in
  let _ =
    Engine.run ~accountant:acc ~label:"flood" ~model:Model.broadcast_congest
      ~graph:g
      ~size_bits:(fun () -> 4)
      ~init:(fun _ -> 0)
      ~step:(fun ~round ~vertex:_ k _ ->
        if round <= 3 then (k + 1, Some (), true) else (k, None, false))
      ()
  in
  Alcotest.(check bool) "charged" true (Rounds.rounds acc >= 3);
  Alcotest.(check bool) "labeled" true
    (List.mem_assoc "flood" (Rounds.breakdown acc))

let test_engine_big_messages_cost_more () =
  let prng = Prng.create 25 in
  let g = Gen.ring prng ~n:8 in
  let run bits =
    let _, stats =
      Engine.run ~model:Model.broadcast_congest ~graph:g
        ~size_bits:(fun () -> bits)
        ~init:(fun _ -> 0)
        ~step:(fun ~round ~vertex:_ k _ ->
          if round = 1 then (k, Some (), true) else (k, None, false))
        ()
    in
    stats.Engine.rounds
  in
  Alcotest.(check bool) "100-bit message costs more rounds" true (run 100 > run 3)

let test_engine_converged_flag () =
  let prng = Prng.create 29 in
  let g = Gen.ring prng ~n:8 in
  let _, stats = bfs_program g Model.broadcast_congest in
  Alcotest.(check bool) "clean run converges" true stats.Engine.converged;
  let _, stats =
    Engine.run ~model:Model.broadcast_congest ~graph:g
      ~size_bits:(fun () -> 1)
      ~init:(fun _ -> ())
      ~step:(fun ~round:_ ~vertex:_ s _ -> (s, Some (), true))
      ~max_supersteps:3 ()
  in
  Alcotest.(check bool) "truncated run reported" false stats.Engine.converged

(* ------------------------------------------------------------------ *)
(* Engine: the inbox each step sees, against a naive reference         *)

(* A vertex program whose broadcasts and halts are a pure function of
   (seed, round, vertex), so the reference can replay them without
   running it.  Each state is the list of inboxes the vertex saw,
   copied out of the view during the step. *)
let coin seed ~round ~vertex ~percent =
  Prng.int (Prng.create ((seed * 7919) + (round * 104_729) + vertex)) 100
  < percent

let msg_of ~round ~vertex = (round * 1000) + vertex
let halt_round seed v = 1 + Prng.int (Prng.create ((seed * 31) + v)) 12
let broadcasts seed ~round ~vertex = coin seed ~round ~vertex ~percent:60

(* Tampered payloads stay distinct from every honest one. *)
let tamper ~salt m = -(1 + m + (1000 * (salt land 0xFF)))

let observed_inboxes ~seed ~model ~graph ~faults =
  let step ~round ~vertex seen inbox =
    let got = List.rev (Engine.Inbox.fold (fun l u m -> (u, m) :: l) [] inbox) in
    let msg =
      if broadcasts seed ~round ~vertex then Some (msg_of ~round ~vertex)
      else None
    in
    ((round, got) :: seen, msg, round < halt_round seed vertex)
  in
  let states, _ =
    Engine.run ?faults ~tamper ~model ~graph
      ~size_bits:(fun m -> Bits.int_bits m)
      ~init:(fun _ -> []) ~step ~max_supersteps:64 ()
  in
  Array.map List.rev states

(* The engine's contract, replayed the slow way: a receiver hears, in
   ascending sender order, every neighbour (everyone but itself on the
   clique) that broadcast in the previous superstep, each delivery
   repeated and tampered as its fault verdict says.  Verdicts are queried
   sender-major in the graph's adjacency order (the adversarial budget
   burns in that order) and the last non-default one of a pair counts. *)
let reference_inboxes ~seed ~model ~graph ~faults =
  let n = Graph.n graph in
  let clique = model.Model.topology = Model.Clique in
  let adjacency v =
    if clique then List.filter (fun u -> u <> v) (List.init n Fun.id)
    else List.map fst (Graph.neighbors graph v)
  in
  let live = Array.make n true in
  let seen = Array.make n [] in
  let sent = ref (Array.make n None) in
  let verdicts = Hashtbl.create 16 in
  let round = ref 0 in
  while Array.exists Fun.id live && !round < 64 do
    incr round;
    let round = !round in
    (match faults with
    | Some f ->
        Array.iteri
          (fun v alive ->
            if alive && Fault.crashed f ~vertex:v ~round then live.(v) <- false)
          live
    | None -> ());
    let out = Array.make n None in
    for v = 0 to n - 1 do
      if live.(v) then begin
        let got =
          List.concat_map
            (fun u ->
              match !sent.(u) with
              | None -> []
              | Some m -> (
                  match Hashtbl.find_opt verdicts (u, v) with
                  | None -> [ (u, m) ]
                  | Some (c, salt) ->
                      let m =
                        match salt with Some salt -> tamper ~salt m | None -> m
                      in
                      List.init c (fun _ -> (u, m))))
            (List.sort Int.compare (adjacency v))
        in
        seen.(v) <- (round, got) :: seen.(v);
        if broadcasts seed ~round ~vertex:v then
          out.(v) <- Some (msg_of ~round ~vertex:v);
        if round >= halt_round seed v then live.(v) <- false
      end
    done;
    Hashtbl.reset verdicts;
    (match faults with
    | Some f ->
        for v = 0 to n - 1 do
          if Option.is_some out.(v) then
            List.iter
              (fun u ->
                let c = Fault.copies f ~round ~src:v ~dst:u in
                let salt =
                  if c = 0 then None else Fault.tamper f ~round ~src:v ~dst:u
                in
                if c <> 1 || Option.is_some salt then
                  Hashtbl.replace verdicts (v, u) (c, salt))
              (adjacency v)
        done
    | None -> ());
    sent := out
  done;
  Array.map List.rev seen

let random_faults seed ~n =
  let g = Prng.create (seed + 17) in
  let prob () = if Prng.int g 3 = 0 then 0.0 else 0.4 *. Prng.float g in
  let spec =
    Fault.spec ~drop_prob:(prob ()) ~duplicate_prob:(prob ())
      ~corrupt_prob:(prob ())
      ~crashes:(List.init (Prng.int g 3) (fun _ -> (Prng.int g n, 1 + Prng.int g 8)))
      ~adversarial_drops:(Prng.int g 4)
      ~byzantine:(List.init (Prng.int g 3) (fun _ -> Prng.int g n))
      ~byz_prob:(prob ()) ()
  in
  Fault.create ~seed spec

(* An Erdős–Rényi graph with a few of its edges doubled, so parallel
   deliveries are exercised too. *)
let random_graph seed ~n =
  let g = Gen.erdos_renyi_connected (Prng.create seed) ~n ~p:0.2 ~w_max:4 in
  let edges = Array.to_list (Graph.edges g) in
  let doubled = List.filteri (fun i _ -> i mod 7 = seed mod 7) edges in
  Graph.create ~n (edges @ doubled)

let qcheck_inbox_matches_reference =
  QCheck.Test.make ~count:40 ~name:"inbox = naive reference, 1/2/4 domains"
    QCheck.(triple (int_bound 100_000) (int_range 3 50) bool)
    (fun (seed, n, faulty) ->
      (* The generator needs n >= 3, shrunk inputs included. *)
      let n = Stdlib.max 3 n in
      let graph = random_graph seed ~n in
      let faults () = if faulty then Some (random_faults seed ~n) else None in
      let ok =
        List.for_all
          (fun model ->
            let expected =
              reference_inboxes ~seed ~model ~graph ~faults:(faults ())
            in
            List.for_all
              (fun d ->
                Pool.set_default_domains d;
                observed_inboxes ~seed ~model ~graph ~faults:(faults ())
                = expected)
              [ 1; 2; 4 ])
          [ Model.broadcast_congest; Model.broadcast_congested_clique ]
      in
      Pool.set_default_domains 1;
      ok)

let suites =
  [
    ( "net.model",
      [
        Alcotest.test_case "names" `Quick test_model_names;
        Alcotest.test_case "bandwidth" `Quick test_model_bandwidth;
        Alcotest.test_case "payload sizes" `Quick test_payload_sizes;
        Alcotest.test_case "weight bits" `Quick test_payload_weight_bits;
      ] );
    ( "net.rounds",
      [
        Alcotest.test_case "charging" `Quick test_rounds_charging;
        Alcotest.test_case "one round minimum" `Quick test_rounds_small_message_one_round;
        Alcotest.test_case "rejects bad bandwidth" `Quick test_rounds_rejects_bad;
        Alcotest.test_case "breakdown sums + order" `Quick test_rounds_breakdown_sums;
        Alcotest.test_case "charge_vector entries" `Quick
          test_rounds_charge_vector_entries;
        Alcotest.test_case "phase tree" `Quick test_rounds_tree;
      ] );
    ( "net.engine",
      [
        Alcotest.test_case "bfs distances" `Quick test_engine_bfs_distances;
        Alcotest.test_case "ring vs clique" `Quick test_engine_bfs_rounds_ring_vs_clique;
        Alcotest.test_case "charges accountant" `Quick test_engine_charges_accountant;
        Alcotest.test_case "message size matters" `Quick test_engine_big_messages_cost_more;
        Alcotest.test_case "converged flag" `Quick test_engine_converged_flag;
        QCheck_alcotest.to_alcotest qcheck_inbox_matches_reference;
      ] );
  ]
