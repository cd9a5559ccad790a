(* The serve stack: wire protocol round-trips, scheduler determinism and
   admission control, daemon drain semantics, and bit-identity of coalesced
   daemon responses against direct Prepared solves — plus the Metrics
   quantile estimator the daemon's SLO snapshot is built on. *)

module Metrics = Lbcc_obs.Metrics
module Vec = Lbcc_linalg.Vec
module Graph = Lbcc_graph.Graph
module Pool = Lbcc_util.Pool
module Ctx = Lbcc_service.Ctx
module Prepared = Lbcc_service.Prepared
module Proto = Lbcc_serve.Proto
module Sched = Lbcc_serve.Sched
module Fleet = Lbcc_serve.Fleet
module Workload = Lbcc_serve.Workload
module Daemon = Lbcc_serve.Daemon

(* ------------------------------------------------------------------ *)
(* Metrics quantiles (log2-histogram interpolation)                    *)

let summary_of values =
  let m = Metrics.create () in
  List.iter (Metrics.observe (Some m) "h") values;
  match Metrics.histogram m "h" with
  | Some s -> s
  | None -> Alcotest.fail "histogram missing"

let test_quantile_endpoints () =
  let s = summary_of [ 3.0; 9.0; 27.0; 81.0 ] in
  Alcotest.(check (float 0.0)) "q=0 is exact min" 3.0 (Metrics.quantile s 0.0);
  Alcotest.(check (float 0.0)) "q=1 is exact max" 81.0 (Metrics.quantile s 1.0)

let test_quantile_constant () =
  (* Every observation equal: all quantiles must collapse to that value
     (the clamp to [min, max] beats the bucket midpoint). *)
  let s = summary_of [ 5.0; 5.0; 5.0; 5.0; 5.0 ] in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q=%.2f of constant" q)
        5.0 (Metrics.quantile s q))
    [ 0.1; 0.5; 0.9; 0.99 ]

let test_quantile_uniform_bucket_error () =
  (* Uniform 1..1024: a log2 histogram can misplace a quantile by at most
     its bucket width, i.e. a factor of 2. *)
  let s = summary_of (List.init 1024 (fun i -> float_of_int (i + 1))) in
  let p50 = Metrics.quantile s 0.5 in
  let p99 = Metrics.quantile s 0.99 in
  Alcotest.(check bool)
    "p50 within one bucket of 512" true
    (p50 >= 256.0 && p50 <= 1024.0);
  Alcotest.(check bool)
    "p99 within one bucket of 1014" true
    (p99 >= 512.0 && p99 <= 1024.0);
  Alcotest.(check bool) "p50 <= p99" true (p50 <= p99)

let test_quantile_bimodal () =
  (* 90 small + 10 large: p50 must sit in the small mode, p99 in the
     large one — the shape the latency SLO snapshot depends on. *)
  let values =
    List.init 90 (fun _ -> 1.5) @ List.init 10 (fun _ -> 1000.0)
  in
  let s = summary_of values in
  Alcotest.(check bool) "p50 in small mode" true (Metrics.quantile s 0.5 <= 2.0);
  Alcotest.(check bool)
    "p99 in large mode" true
    (Metrics.quantile s 0.99 >= 512.0)

let test_quantile_monotone () =
  let s = summary_of (List.init 200 (fun i -> Float.pow 1.3 (float_of_int (i mod 37)))) in
  let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
  let vals = List.map (Metrics.quantile s) qs in
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "monotone in q" true (a <= b);
        check_sorted rest
    | _ -> ()
  in
  check_sorted vals

let test_quantile_errors () =
  let s = summary_of [ 1.0 ] in
  Alcotest.check_raises "q < 0" (Invalid_argument "Metrics.quantile: q outside [0, 1]")
    (fun () -> ignore (Metrics.quantile s (-0.1) : float));
  let m = Metrics.create () in
  Alcotest.(check bool) "missing histogram" true (Metrics.histogram m "absent" = None)

(* ------------------------------------------------------------------ *)
(* Proto: codec round-trips and incremental framing                    *)

let roundtrip_req req =
  let frame = Proto.encode_request ~id:42 req in
  let payload = Bytes.sub frame 4 (Bytes.length frame - 4) in
  Proto.decode_request payload

let roundtrip_resp ~id resp =
  let frame = Proto.encode_response ~id resp in
  let payload = Bytes.sub frame 4 (Bytes.length frame - 4) in
  Proto.decode_response payload

let test_proto_request_roundtrip () =
  let b = [| 1.5; -2.25; Float.min_float; 0.75 |] in
  List.iter
    (fun req ->
      let id, req' = roundtrip_req req in
      Alcotest.(check int) "id echoed" 42 id;
      Alcotest.(check bool)
        "request round-trips" true
        (Bytes.equal
           (Proto.encode_request ~id:42 req)
           (Proto.encode_request ~id:42 req')))
    [
      Proto.Solve { name = "g0"; eps = 1e-8; b };
      Proto.Resistance { name = "grid-1"; eps = 1e-10; s = 0; t = 17 };
      Proto.Flow { name = "f0" };
      Proto.Update
        {
          name = "g0";
          delta =
            Graph.Delta.of_ops
              [
                Graph.Delta.Insert { Graph.u = 0; v = 5; w = 2.0 };
                Graph.Delta.Delete 3;
                Graph.Delta.Reweight (7, 0.25);
              ];
        };
      Proto.Update { name = "empty-delta"; delta = Graph.Delta.of_ops [] };
      Proto.Stats;
      Proto.Info;
      Proto.Shutdown;
    ]

let test_proto_response_roundtrip () =
  List.iter
    (fun resp ->
      let id, resp' = roundtrip_resp ~id:7 resp in
      Alcotest.(check int) "id echoed" 7 id;
      Alcotest.(check bool)
        "response round-trips" true
        (Bytes.equal
           (Proto.encode_response ~id:7 resp)
           (Proto.encode_response ~id:7 resp')))
    [
      Proto.Solution
        {
          solution = [| 0.1; -0.2; 0.30000000000000004 |];
          residual = 3.5e-16;
          iterations = 19;
          rounds = 132;
          bits = 7392;
        };
      Proto.Resistance_r { resistance = 0.07812500000000001; rounds = 150; bits = 900 };
      Proto.Flow_r { flow = [| 1.0; 0.0; 2.0 |]; value = 3; cost = 11; rounds = 44; bits = 220 };
      Proto.Update_r
        { n = 24; m = 71; fingerprint = "00deadbeef00c0de"; rounds = 210; bits = 4410 };
      Proto.Json_r "{\"schema\":\"lbcc-serve-stats/1\"}";
      Proto.Ok_r;
      Proto.Error_r { code = Proto.Overloaded; message = "admission queue full" };
      Proto.Error_r { code = Proto.Bad_request; message = "" };
      Proto.Error_r { code = Proto.Internal; message = "solver raised" };
    ]

let test_proto_float_bits_exact () =
  (* The identity claims need the codec lossless on every float, including
     awkward ones. *)
  let b = [| 0.1 +. 0.2; -0.0; 1e-300; Float.max_float; Float.min_float |] in
  match roundtrip_req (Proto.Solve { name = "g"; eps = 0.1 +. 0.2; b }) with
  | _, Proto.Solve { b = b'; eps; _ } ->
      Array.iteri
        (fun i v ->
          Alcotest.(check bool)
            (Printf.sprintf "bit pattern %d" i)
            true
            (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float b'.(i))))
        b;
      Alcotest.(check bool) "eps bits" true
        (Int64.equal (Int64.bits_of_float (0.1 +. 0.2)) (Int64.bits_of_float eps))
  | _ -> Alcotest.fail "wrong request decoded"

let test_proto_malformed () =
  let bad_opcode = Bytes.make 6 '\x7f' in
  Bytes.set bad_opcode 0 (Char.chr Proto.version);
  Alcotest.check_raises "unknown opcode"
    (Proto.Decode_error "unknown request opcode 0x7f") (fun () ->
      ignore (Proto.decode_request bad_opcode : int * Proto.request));
  (* A v1 frame (or any other version) is refused before opcode dispatch. *)
  Alcotest.check_raises "version mismatch"
    (Proto.Decode_error
       (Printf.sprintf "protocol version 1, expected %d" Proto.version))
    (fun () ->
      ignore (Proto.decode_request (Bytes.make 6 '\x01') : int * Proto.request));
  let frame = Proto.encode_request ~id:1 (Proto.Flow { name = "f0" }) in
  let payload = Bytes.sub frame 4 (Bytes.length frame - 4) in
  let padded = Bytes.cat payload (Bytes.make 1 '\x00') in
  (try
     ignore (Proto.decode_request padded : int * Proto.request);
     Alcotest.fail "trailing bytes accepted"
   with Proto.Decode_error _ -> ());
  try
    ignore (Proto.decode_request (Bytes.sub payload 0 3) : int * Proto.request);
    Alcotest.fail "truncated payload accepted"
  with Proto.Decode_error _ -> ()

let test_proto_reader_chunked () =
  (* Feed two frames one byte at a time; both must pop out intact. *)
  let f1 = Proto.encode_request ~id:1 (Proto.Resistance { name = "g1"; eps = 1e-10; s = 3; t = 9 }) in
  let f2 = Proto.encode_request ~id:2 Proto.Stats in
  let stream = Bytes.cat f1 f2 in
  let r = Proto.Reader.create () in
  let popped = ref [] in
  Bytes.iter
    (fun c ->
      Proto.Reader.feed r (Bytes.make 1 c) 1;
      match Proto.Reader.next r with
      | Some p -> popped := p :: !popped
      | None -> ())
    stream;
  match List.rev !popped with
  | [ p1; p2 ] ->
      Alcotest.(check int) "first id" 1 (fst (Proto.decode_request p1));
      Alcotest.(check int) "second id" 2 (fst (Proto.decode_request p2));
      (* Nothing is left over: a third frame decodes from its own first byte. *)
      let f3 = Proto.encode_request ~id:3 Proto.Stats in
      Proto.Reader.feed r f3 (Bytes.length f3);
      Alcotest.(check (option int)) "aligned on the next frame" (Some 3)
        (Option.map (fun p -> fst (Proto.decode_request p)) (Proto.Reader.next r))
  | l -> Alcotest.fail (Printf.sprintf "expected 2 frames, got %d" (List.length l))

(* ------------------------------------------------------------------ *)
(* Sched: determinism, admission, window                               *)

(* A scripted event trace: Admit (key, tag) or Dispatch force.  Running it
   returns the rejected tags and the dispatched batches. *)
type event = Admit of string * int | Dispatch of bool

let run_trace cfg events =
  let s = Sched.create cfg in
  let rejected = ref [] in
  let batches = ref [] in
  List.iter
    (fun ev ->
      match ev with
      | Admit (key, tag) ->
          if not (Sched.admit s ~key tag) then rejected := tag :: !rejected
      | Dispatch force -> (
          match Sched.dispatch ~force s with
          | Some b -> batches := (b.Sched.key, b.Sched.items) :: !batches
          | None -> ()))
    events;
  (List.rev !rejected, List.rev !batches, Sched.pending s)

(* The graph ranks of a one-client zipf(1) trace of [n] solves over four
   graphs. *)
let zipf_ranks ~seed ~n =
  Workload.trace
    {
      Workload.seed;
      clients = 1;
      per_client = n;
      graphs = 4;
      zipf_s = 1.0;
      resistance_frac = 0.0;
      flows = 0;
      networks = 0;
    }
  |> (fun t -> t.(0))
  |> Array.map (function
       | Workload.Solve_op { graph; _ } | Workload.Resistance_op { graph; _ } -> graph
       | Workload.Flow_op _ -> Alcotest.fail "no flow ops requested")

let zipf_events ~n ~dispatch_every =
  let ranks = zipf_ranks ~seed:99 ~n in
  List.concat
    (List.init n (fun i ->
         let key = Printf.sprintf "k%d" ranks.(i) in
         if (i + 1) mod dispatch_every = 0 then
           [ Admit (key, i); Dispatch false; Dispatch true ]
         else [ Admit (key, i) ]))

let test_sched_trace_deterministic () =
  let cfg = { Sched.max_queue = 64; max_batch = 4; window = 2 } in
  let events = zipf_events ~n:120 ~dispatch_every:3 @ [ Dispatch true; Dispatch true ] in
  let r1 = run_trace cfg events in
  let r2 = run_trace cfg events in
  Alcotest.(check bool) "identical rejects/batches/pending" true (r1 = r2)

let test_sched_rejects_exact_tail () =
  (* Admission control must reject exactly the over-budget tail: with a
     queue of Q, requests 0..Q-1 enter and Q..N-1 bounce, in order. *)
  let q = 8 and n = 13 in
  let cfg = { Sched.max_queue = q; max_batch = 4; window = 2 } in
  let events = List.init n (fun i -> Admit ("hot", i)) in
  let rejected, _, pending = run_trace cfg events in
  Alcotest.(check (list int)) "exactly the tail rejected"
    (List.init (n - q) (fun i -> q + i))
    rejected;
  Alcotest.(check int) "queue holds the head" q pending

let test_sched_admits_after_dispatch () =
  let cfg = { Sched.max_queue = 2; max_batch = 2; window = 0 } in
  let s = Sched.create cfg in
  Alcotest.(check bool) "1 in" true (Sched.admit s ~key:"a" 1);
  Alcotest.(check bool) "2 in" true (Sched.admit s ~key:"a" 2);
  Alcotest.(check bool) "3 bounced" false (Sched.admit s ~key:"a" 3);
  (match Sched.dispatch s with
  | Some b -> Alcotest.(check (list int)) "batch drains both" [ 1; 2 ] b.Sched.items
  | None -> Alcotest.fail "window 0 must dispatch");
  Alcotest.(check bool) "slot freed" true (Sched.admit s ~key:"a" 4);
  Alcotest.(check int) "counters" 3 (Sched.admitted s);
  Alcotest.(check int) "rejections counted" 1 (Sched.rejected s)

let test_sched_window_prevents_starvation () =
  (* A lonely fingerprint must dispatch once [window] batches complete,
     even while a hot bin keeps filling. *)
  let cfg = { Sched.max_queue = 64; max_batch = 2; window = 2 } in
  let s = Sched.create cfg in
  ignore (Sched.admit s ~key:"lonely" 0 : bool);
  let tag = ref 100 in
  let feed_hot () =
    ignore (Sched.admit s ~key:"hot" !tag : bool);
    ignore (Sched.admit s ~key:"hot" (!tag + 1) : bool);
    incr tag;
    incr tag
  in
  feed_hot ();
  let k1 = match Sched.dispatch s with Some b -> b.Sched.key | None -> "-" in
  Alcotest.(check string) "hot batch first (full)" "hot" k1;
  feed_hot ();
  let k2 = match Sched.dispatch s with Some b -> b.Sched.key | None -> "-" in
  Alcotest.(check string) "hot again" "hot" k2;
  feed_hot ();
  (* two batches have completed: the lonely head is now over the window
     and must preempt the (full) hot bin. *)
  let k3 = match Sched.dispatch s with Some b -> b.Sched.key | None -> "-" in
  Alcotest.(check string) "lonely bin preempts after window" "lonely" k3

let test_sched_serial_mode () =
  let cfg = { Sched.max_queue = 16; max_batch = 1; window = 0 } in
  let s = Sched.create cfg in
  List.iter (fun i -> ignore (Sched.admit s ~key:"k" i : bool)) [ 0; 1; 2 ];
  let rec drain acc =
    match Sched.dispatch ~force:true s with
    | Some b -> drain (b.Sched.occupancy :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list int)) "serial batches carry one request" [ 1; 1; 1 ]
    (drain [])

(* ------------------------------------------------------------------ *)
(* Daemon: drain, rejection responses, determinism across domains      *)

let small_fleet =
  lazy
    (Fleet.build
       { Fleet.default_config with Fleet.graphs = 2; vertices = 24; networks = 1 })

let feed_requests daemon reqs =
  List.iteri (fun id req -> Daemon.handle daemon ~client:0 ~id req) reqs

let solve_req fleet ~graph ~op_seed =
  let e = List.nth fleet.Fleet.entries graph in
  Proto.Solve
    {
      name = e.Fleet.name;
      eps = 1e-8;
      b = Workload.rhs ~n:(Graph.n e.Fleet.graph) ~op_seed;
    }

let decode_outputs daemon =
  List.map
    (fun (_, frame) ->
      Proto.decode_response (Bytes.sub frame 4 (Bytes.length frame - 4)))
    (Daemon.take_output daemon)

let test_daemon_drain_answers_everything () =
  let fleet = Lazy.force small_fleet in
  let cfg =
    {
      Daemon.default_config with
      Daemon.sched = { Sched.max_queue = 32; max_batch = 4; window = 8 };
    }
  in
  let d = Daemon.create cfg fleet in
  let reqs = List.init 6 (fun i -> solve_req fleet ~graph:(i mod 2) ~op_seed:(3 * i + 1)) in
  feed_requests d reqs;
  Alcotest.(check int) "all admitted" 6 (Daemon.pending d);
  (* window 8 with no completed batches: nothing is ripe yet *)
  Alcotest.(check bool) "nothing ripe before window" false (Daemon.tick d);
  Daemon.request_shutdown d;
  Daemon.handle d ~client:0 ~id:99
    (solve_req fleet ~graph:0 ~op_seed:77);
  Daemon.drain d;
  Alcotest.(check int) "queue empty after drain" 0 (Daemon.pending d);
  let outs = decode_outputs d in
  Alcotest.(check int) "every request answered" 7 (List.length outs);
  let overloaded =
    List.filter
      (fun (_, r) ->
        match r with
        | Proto.Error_r { code = Proto.Overloaded; _ } -> true
        | _ -> false)
      outs
  in
  Alcotest.(check (list int)) "only the post-shutdown request bounced" [ 99 ]
    (List.map fst overloaded);
  Alcotest.(check int) "served counts the admitted work" 6 (Daemon.served d)

let test_daemon_rejects_over_budget_tail () =
  let fleet = Lazy.force small_fleet in
  let cfg =
    {
      Daemon.default_config with
      Daemon.sched = { Sched.max_queue = 4; max_batch = 4; window = 4 };
    }
  in
  let d = Daemon.create cfg fleet in
  let reqs = List.init 7 (fun i -> solve_req fleet ~graph:0 ~op_seed:(2 * i + 1)) in
  feed_requests d reqs;
  Daemon.drain d;
  let outs = decode_outputs d in
  let rejected_ids =
    List.filter_map
      (fun (id, r) ->
        match r with
        | Proto.Error_r { code = Proto.Overloaded; _ } -> Some id
        | _ -> None)
      outs
  in
  Alcotest.(check (list int)) "exactly ids 4..6 rejected" [ 4; 5; 6 ] rejected_ids;
  Alcotest.(check int) "seven answers for seven requests" 7 (List.length outs)

let test_daemon_bad_requests () =
  let fleet = Lazy.force small_fleet in
  let d = Daemon.create Daemon.default_config fleet in
  Daemon.handle d ~client:0 ~id:0 (Proto.Solve { name = "nope"; eps = 1e-8; b = [||] });
  Daemon.handle d ~client:0 ~id:1
    (Proto.Solve { name = "g0"; eps = 1e-8; b = [| 1.0; -1.0 |] });
  Daemon.handle d ~client:0 ~id:2
    (Proto.Resistance { name = "g0"; eps = 1e-10; s = 0; t = 999 });
  Daemon.handle d ~client:0 ~id:3 (Proto.Flow { name = "f9" });
  let outs = decode_outputs d in
  Alcotest.(check int) "four immediate answers" 4 (List.length outs);
  List.iter
    (fun (_, r) ->
      match r with
      | Proto.Error_r { code = Proto.Bad_request; _ } -> ()
      | _ -> Alcotest.fail "expected Bad_request")
    outs;
  Alcotest.(check int) "nothing admitted" 0 (Daemon.pending d)

(* Updates interleave with solves through the same admit trace: the daemon
   applies the delta, patches (or recomputes) the fingerprint, and later
   solves run against the mutated graph.  Updates mutate fleet state, so
   each run builds a private fleet rather than touching [small_fleet]. *)
let update_fleet () =
  Fleet.build
    { Fleet.default_config with Fleet.graphs = 2; vertices = 24; networks = 1 }

let test_daemon_update () =
  let run_trace domains =
    Pool.set_default_domains domains;
    let fleet = update_fleet () in
    let d = Daemon.create Daemon.default_config fleet in
    let e = List.hd fleet.Fleet.entries in
    let g0 = e.Fleet.graph in
    let delta =
      Graph.Delta.of_ops
        [
          Graph.Delta.Insert { Graph.u = 0; v = Graph.n g0 - 1; w = 3.0 };
          Graph.Delta.Reweight (0, 2.5);
        ]
    in
    Daemon.handle d ~client:0 ~id:0 (Proto.Update { name = e.Fleet.name; delta });
    Daemon.drain d;
    let upd = decode_outputs d in
    Daemon.handle d ~client:0 ~id:1 (solve_req fleet ~graph:0 ~op_seed:9);
    Daemon.drain d;
    let solved = decode_outputs d in
    (upd, solved, Graph.apply g0 delta, fleet)
  in
  let upd, solved, g', fleet = run_trace 1 in
  (match upd with
  | [ (0, Proto.Update_r { n; m; fingerprint; _ }) ] ->
      Alcotest.(check int) "n unchanged" (Graph.n g') n;
      Alcotest.(check int) "one edge added" (Graph.m g') m;
      Alcotest.(check string) "fingerprint matches recompute"
        (Lbcc_service.Fingerprint.to_hex (Lbcc_service.Fingerprint.graph g'))
        fingerprint
  | _ -> Alcotest.fail "expected a single Update_r");
  (* the fleet entry now holds the mutated graph *)
  let e = List.hd fleet.Fleet.entries in
  Alcotest.(check int) "fleet graph mutated" (Graph.m g') (Graph.m e.Fleet.graph);
  (match solved with
  | [ (1, Proto.Solution { residual; _ }) ] ->
      Alcotest.(check bool) "solve on mutated graph converges" true
        (Float.abs residual < 1e-6)
  | _ -> Alcotest.fail "expected a Solution on the mutated graph");
  (* Same trace at 2 and 4 domains: the full response byte stream is
     bit-identical — update ordering is a pure function of the admit trace. *)
  let render (upd, solved, _, _) =
    String.concat "|"
      (List.map
         (fun (id, r) -> Bytes.to_string (Proto.encode_response ~id r))
         (upd @ solved))
  in
  let r1 = render (upd, solved, g', fleet) in
  let r2 = render (run_trace 2) in
  let r4 = render (run_trace 4) in
  Pool.set_default_domains 1;
  Alcotest.(check string) "1 vs 2 domains identical" r1 r2;
  Alcotest.(check string) "1 vs 4 domains identical" r1 r4

let test_daemon_update_bad () =
  let fleet = update_fleet () in
  let d = Daemon.create Daemon.default_config fleet in
  let e = List.hd fleet.Fleet.entries in
  let m = Graph.m e.Fleet.graph in
  Daemon.handle d ~client:0 ~id:0
    (Proto.Update
       { name = "nope"; delta = Graph.Delta.of_ops [ Graph.Delta.Delete 0 ] });
  Daemon.handle d ~client:0 ~id:1
    (Proto.Update
       { name = e.Fleet.name; delta = Graph.Delta.of_ops [ Graph.Delta.Delete m ] });
  Daemon.handle d ~client:0 ~id:2
    (Proto.Update
       {
         name = e.Fleet.name;
         delta =
           Graph.Delta.of_ops
             [ Graph.Delta.Insert { Graph.u = 0; v = Graph.n e.Fleet.graph; w = 1.0 } ];
       });
  let outs = decode_outputs d in
  Alcotest.(check int) "three immediate rejections" 3 (List.length outs);
  List.iter
    (fun (_, r) ->
      match r with
      | Proto.Error_r { code = Proto.Bad_request; _ } -> ()
      | _ -> Alcotest.fail "expected Bad_request")
    outs;
  Alcotest.(check int) "nothing admitted" 0 (Daemon.pending d);
  Alcotest.(check int) "fleet untouched" m (Graph.m e.Fleet.graph)

(* Cache capacity changes what the daemon pays, never what it answers: a
   capacity-0 daemon, which re-prepares on every batch, answers a
   solve -> resistance -> update -> solve trace byte for byte like the
   default cached one, and charges strictly more rounds for it. *)
let test_daemon_uncached_answers_like_cached () =
  let run cfg =
    let fleet = update_fleet () in
    let d = Daemon.create cfg fleet in
    let g = (List.hd fleet.Fleet.entries).Fleet.graph in
    let delta =
      Graph.Delta.of_ops
        [
          Graph.Delta.Insert { Graph.u = 0; v = Graph.n g - 1; w = 3.0 };
          Graph.Delta.Reweight (0, 2.5);
        ]
    in
    List.iteri
      (fun id req ->
        Daemon.handle d ~client:0 ~id req;
        Daemon.drain d)
      [
        solve_req fleet ~graph:0 ~op_seed:5;
        Proto.Resistance { name = "g0"; eps = 1e-10; s = 0; t = 1 };
        Proto.Update { name = "g0"; delta };
        solve_req fleet ~graph:0 ~op_seed:6;
      ];
    let frames = List.map snd (Daemon.take_output d) in
    (List.map Bytes.to_string frames, Lbcc_net.Rounds.rounds (Daemon.accountant d))
  in
  let cached, cached_rounds = run Daemon.default_config in
  let uncached, uncached_rounds =
    run { Daemon.default_config with Daemon.cache_capacity = 0 }
  in
  Alcotest.(check int) "four answers" 4 (List.length uncached);
  Alcotest.(check (list string)) "responses byte-identical" cached uncached;
  Alcotest.(check bool)
    (Printf.sprintf "uncached pays more rounds (%d > %d)" uncached_rounds
       cached_rounds)
    true
    (uncached_rounds > cached_rounds)

(* The scheduler trace fully determines batch composition, responses and
   accounting — at every worker-pool size.  This is the daemon-level
   replayability contract: run the same request trace at 1/2/4 domains and
   compare the full output byte stream and the accountant breakdown. *)
let test_daemon_deterministic_across_domains () =
  let fleet = Lazy.force small_fleet in
  let trace_cfg =
    {
      Workload.seed = 1;
      clients = 3;
      per_client = 4;
      graphs = 2;
      zipf_s = 1.0;
      resistance_frac = 0.25;
      flows = 0;
      networks = 0;
    }
  in
  let trace = Workload.trace trace_cfg in
  let reqs =
    Array.to_list trace |> List.concat_map Array.to_list
    |> List.map (fun op ->
           match op with
           | Workload.Solve_op { graph; op_seed } -> solve_req fleet ~graph ~op_seed
           | Workload.Resistance_op { graph; op_seed } ->
               let e = List.nth fleet.Fleet.entries graph in
               let n = Graph.n e.Fleet.graph in
               let s, t = Workload.st_pair ~n ~op_seed in
               Proto.Resistance { name = e.Fleet.name; eps = 1e-10; s; t }
           | Workload.Flow_op _ -> Alcotest.fail "no flows configured")
  in
  let run_at domains =
    Pool.set_default_domains domains;
    let cfg =
      {
        Daemon.default_config with
        Daemon.sched = { Sched.max_queue = 64; max_batch = 4; window = 2 };
      }
    in
    let d = Daemon.create cfg fleet in
    (* interleave admission and ticking the way the event loop does *)
    List.iteri
      (fun id req ->
        Daemon.handle d ~client:0 ~id req;
        if id mod 3 = 2 then ignore (Daemon.tick d : bool))
      reqs;
    Daemon.drain d;
    let out =
      String.concat "|"
        (List.map (fun (_, f) -> Bytes.to_string f) (Daemon.take_output d))
    in
    let acct =
      Lbcc_net.Rounds.breakdown (Daemon.accountant d)
      |> List.map (fun (l, r) -> Printf.sprintf "%s=%d" l r)
      |> String.concat ","
    in
    (out, acct, Daemon.served d)
  in
  let o1 = run_at 1 in
  let o2 = run_at 2 in
  let o4 = run_at 4 in
  Pool.set_default_domains 1;
  Alcotest.(check bool) "1 vs 2 domains identical" true (o1 = o2);
  Alcotest.(check bool) "1 vs 4 domains identical" true (o1 = o4)

(* Coalesced daemon responses must be bit-identical to direct in-process
   Prepared solves on the same fleet and seed. *)
let test_daemon_matches_direct () =
  let fleet = Lazy.force small_fleet in
  let d = Daemon.create Daemon.default_config fleet in
  let ops = [ (0, 11); (1, 21); (0, 31); (0, 41); (1, 51) ] in
  List.iteri
    (fun id (graph, op_seed) ->
      Daemon.handle d ~client:0 ~id (solve_req fleet ~graph ~op_seed))
    ops;
  Daemon.drain d;
  let outs = decode_outputs d in
  let ctx = Ctx.make ~seed:Daemon.default_config.Daemon.seed () in
  let handles =
    List.map
      (fun (e : Fleet.entry) -> Prepared.create ~ctx e.Fleet.graph)
      fleet.Fleet.entries
  in
  List.iteri
    (fun id (graph, op_seed) ->
      let e = List.nth fleet.Fleet.entries graph in
      let q =
        Prepared.solve ~eps:1e-8 (List.nth handles graph)
          ~b:(Workload.rhs ~n:(Graph.n e.Fleet.graph) ~op_seed)
      in
      let direct =
        Proto.Solution
          {
            solution = q.Prepared.solution;
            residual = q.Prepared.residual;
            iterations = q.Prepared.iterations;
            rounds = q.Prepared.rounds;
            bits = q.Prepared.bits;
          }
      in
      match List.assoc_opt id outs with
      | Some got ->
          Alcotest.(check bool)
            (Printf.sprintf "request %d bit-identical to direct solve" id)
            true
            (Bytes.equal
               (Proto.encode_response ~id:0 got)
               (Proto.encode_response ~id:0 direct))
      | None -> Alcotest.fail (Printf.sprintf "no response for request %d" id))
    ops

let test_daemon_stats_shape () =
  let fleet = Lazy.force small_fleet in
  let d = Daemon.create Daemon.default_config fleet in
  feed_requests d (List.init 3 (fun i -> solve_req fleet ~graph:0 ~op_seed:(i + 1)));
  Daemon.drain d;
  ignore (Daemon.take_output d : (int * Bytes.t) list);
  let s = Lbcc_obs.Json.to_string (Daemon.stats_json d) in
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "stats has %S" key)
        true
        (let pat = Printf.sprintf "%S:" key in
         let n = String.length s and m = String.length pat in
         let rec at i = i + m <= n && (String.sub s i m = pat || at (i + 1)) in
         at 0))
    [ "schema"; "served"; "admitted"; "rejected"; "batches"; "rounds"; "slo"; "cache" ]

(* ------------------------------------------------------------------ *)
(* Workload: seeded traces                                             *)

let test_workload_deterministic () =
  let cfg =
    {
      Workload.seed = 1;
      clients = 5;
      per_client = 7;
      graphs = 4;
      zipf_s = 1.0;
      resistance_frac = 0.25;
      flows = 0;
      networks = 0;
    }
  in
  Alcotest.(check bool) "same config, same trace" true
    (Workload.trace cfg = Workload.trace cfg);
  let other = Workload.trace { cfg with Workload.seed = 2 } in
  Alcotest.(check bool) "different seed, different trace" false
    (Workload.trace cfg = other)

let test_workload_zipf_shape () =
  let counts = Array.make 4 0 in
  Array.iter (fun r -> counts.(r) <- counts.(r) + 1) (zipf_ranks ~seed:5 ~n:4000);
  (* zipf(1) over 4 ranks: rank 0 carries 1/(1+1/2+1/3+1/4) = 48% *)
  Alcotest.(check bool)
    (Printf.sprintf "head heaviness %d/4000" counts.(0))
    true
    (counts.(0) > 1760 && counts.(0) < 2080);
  Alcotest.(check bool) "rank 0 hottest" true (counts.(0) > counts.(1));
  Alcotest.(check bool) "rank 1 beats rank 3" true (counts.(1) > counts.(3))

let test_workload_rhs_zero_sum () =
  let b = Workload.rhs ~n:33 ~op_seed:17 in
  let sum = Array.fold_left ( +. ) 0.0 b in
  Alcotest.(check bool) "rhs is mean-centered" true (Float.abs sum < 1e-9);
  let s, t = Workload.st_pair ~n:33 ~op_seed:17 in
  Alcotest.(check bool) "s-t pair distinct and in range" true
    (s <> t && s >= 0 && s < 33 && t >= 0 && t < 33)

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "serve-quantile",
      [
        Alcotest.test_case "endpoints exact" `Quick test_quantile_endpoints;
        Alcotest.test_case "constant collapses" `Quick test_quantile_constant;
        Alcotest.test_case "uniform within bucket error" `Quick
          test_quantile_uniform_bucket_error;
        Alcotest.test_case "bimodal separation" `Quick test_quantile_bimodal;
        Alcotest.test_case "monotone in q" `Quick test_quantile_monotone;
        Alcotest.test_case "errors and missing" `Quick test_quantile_errors;
      ] );
    ( "serve-proto",
      [
        Alcotest.test_case "request round-trip" `Quick test_proto_request_roundtrip;
        Alcotest.test_case "response round-trip" `Quick test_proto_response_roundtrip;
        Alcotest.test_case "float bit patterns" `Quick test_proto_float_bits_exact;
        Alcotest.test_case "malformed payloads" `Quick test_proto_malformed;
        Alcotest.test_case "chunked reader" `Quick test_proto_reader_chunked;
      ] );
    ( "serve-sched",
      [
        Alcotest.test_case "trace deterministic" `Quick test_sched_trace_deterministic;
        Alcotest.test_case "rejects exact tail" `Quick test_sched_rejects_exact_tail;
        Alcotest.test_case "admits after dispatch" `Quick test_sched_admits_after_dispatch;
        Alcotest.test_case "window prevents starvation" `Quick
          test_sched_window_prevents_starvation;
        Alcotest.test_case "serial mode" `Quick test_sched_serial_mode;
      ] );
    ( "serve-daemon",
      [
        Alcotest.test_case "drain answers everything" `Quick
          test_daemon_drain_answers_everything;
        Alcotest.test_case "rejects over-budget tail" `Quick
          test_daemon_rejects_over_budget_tail;
        Alcotest.test_case "bad requests" `Quick test_daemon_bad_requests;
        Alcotest.test_case "applies updates deterministically" `Quick
          test_daemon_update;
        Alcotest.test_case "rejects bad updates" `Quick test_daemon_update_bad;
        Alcotest.test_case "uncached answers like cached" `Quick
          test_daemon_uncached_answers_like_cached;
        Alcotest.test_case "deterministic across domains" `Slow
          test_daemon_deterministic_across_domains;
        Alcotest.test_case "matches direct solves" `Slow test_daemon_matches_direct;
        Alcotest.test_case "stats shape" `Quick test_daemon_stats_shape;
      ] );
    ( "serve-workload",
      [
        Alcotest.test_case "trace deterministic" `Quick test_workload_deterministic;
        Alcotest.test_case "zipf shape" `Quick test_workload_zipf_shape;
        Alcotest.test_case "rhs zero-sum" `Quick test_workload_rhs_zero_sum;
      ] );
  ]
