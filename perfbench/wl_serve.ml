(* serve: the socket-free daemon core under a closed loop.  The daemon is
   built with its default configuration over a fleet of 8 Erdős–Rényi
   graphs (p = 0.3), every handle prepared on load.  16 virtual clients
   (not threads) each keep one request outstanding; a client's next
   request picks a graph by zipf(1.0).  Every 200th request is an Update
   (2 inserts and 4 reweights, valid for the version it lands on, at most
   one pending per graph: a graph with one pending passes it to the next
   graph without); the others are a Resistance with probability 1/4, else
   a Solve.  A fixed update count keeps the run's cost from hanging on how
   many updates a seed happens to draw.  Frames go through Proto in both directions and through
   Daemon.handle / tick / take_output, all in this process.

   A run serves a fixed number of requests (400 per second of --seconds,
   the rate measured on the reference host), so the exact counters of a
   seed never depend on the machine's speed.
   Answers are checked after the loop, each against the benchmark's own
   copy of the graph version that answered it. *)

open Common
module Graph = Lbcc_graph.Graph
module Proto = Lbcc_serve.Proto
module Daemon = Lbcc_serve.Daemon
module Fleet = Lbcc_serve.Fleet
module Metrics = Lbcc_obs.Metrics
module Rounds = Lbcc_net.Rounds
module Prng = Lbcc_util.Prng

let graphs = 8
let vertices = 96
let clients = 16
let requests_per_second = 400
let update_every = 200
let resistance_prob = 0.25
let solve_eps = 1e-8
let resistance_eps = 1e-10
let residual_tol = 100.0 *. solve_eps
let resistance_tol = 1e-6

(* The benchmark's own copy of one fleet graph, versioned by updates. *)
type mirror = {
  mutable g : Oracle.graph;
  m0 : int;  (** ids below m0 never move: updates delete nothing *)
  adjacent : (int * int, unit) Hashtbl.t;
  mutable update_pending : bool;
}

type pending =
  | P_solve of { gi : int; b : float array }
  | P_resist of { gi : int; s : int; t : int }
  | P_update of { gi : int; ins : (int * int * float) list; rew : (int * float) list }

(* An answer, with the graph version it must hold for. *)
type answered =
  | A_solve of { g : Oracle.graph; b : float array; x : float array }
  | A_resist of { g : Oracle.graph; s : int; t : int; r : float }

type env = {
  daemon : Daemon.t;
  mirrors : mirror array;
  names : string array;
  readers : Proto.Reader.t array;
}

let fleet_config seed =
  {
    Fleet.default_config with
    Fleet.seed;
    graphs;
    vertices;
    family = Fleet.Er;
    w_max = 8;
  }

let build seed =
  let fleet = Fleet.build (fleet_config seed) in
  let daemon = Daemon.create Daemon.default_config fleet in
  let entries = Array.of_list fleet.Fleet.entries in
  let mirrors =
    Array.map
      (fun (e : Fleet.entry) ->
        let g = to_oracle e.Fleet.graph in
        let adjacent = Hashtbl.create (2 * Oracle.m g) in
        for k = 0 to Oracle.m g - 1 do
          Hashtbl.replace adjacent (Stdlib.min g.us.(k) g.vs.(k), Stdlib.max g.us.(k) g.vs.(k)) ()
        done;
        { g; m0 = Oracle.m g; adjacent; update_pending = false })
      entries
  in
  {
    daemon;
    mirrors;
    names = Array.map (fun (e : Fleet.entry) -> e.Fleet.name) entries;
    readers = Array.init clients (fun _ -> Proto.Reader.create ());
  }

let zipf_cdf =
  let w = Array.init graphs (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let zipf prng =
  let u = Prng.float prng in
  let rec go i = if i >= graphs - 1 || u < zipf_cdf.(i) then i else go (i + 1) in
  go 0

let draw ~update prng env =
  let gi = zipf prng in
  let gi =
    if not update then gi
    else
      let rec free k =
        let g = (gi + k) mod graphs in
        if not env.mirrors.(g).update_pending then g
        else if k < graphs then free (k + 1)
        else invalid_arg "every graph has an update pending"
      in
      free 0
  in
  let mir = env.mirrors.(gi) in
  let n = mir.g.Oracle.n in
  let u = Prng.float prng in
  if update then begin
    let rec insert acc k =
      if k = 0 then acc
      else
        let a = Prng.int prng n and b = Prng.int prng n in
        let key = (Stdlib.min a b, Stdlib.max a b) in
        if a = b || Hashtbl.mem mir.adjacent key
           || List.exists (fun (x, y, _) -> (x, y) = key) acc
        then insert acc k
        else insert ((fst key, snd key, float_of_int (1 + Prng.int prng 8)) :: acc) (k - 1)
    in
    let rec reweight acc k =
      if k = 0 then acc
      else
        let id = Prng.int prng mir.m0 in
        if List.mem_assoc id acc then reweight acc k
        else reweight ((id, float_of_int (1 + Prng.int prng 8)) :: acc) (k - 1)
    in
    mir.update_pending <- true;
    P_update { gi; ins = insert [] 2; rew = reweight [] 4 }
  end
  else if u < resistance_prob then begin
    let s = Prng.int prng n in
    let t = (s + 1 + Prng.int prng (n - 1)) mod n in
    P_resist { gi; s; t }
  end
  else P_solve { gi; b = zero_sum_rhs prng n }

let request env = function
  | P_solve { gi; b } -> Proto.Solve { name = env.names.(gi); eps = solve_eps; b }
  | P_resist { gi; s; t } -> Proto.Resistance { name = env.names.(gi); eps = resistance_eps; s; t }
  | P_update { gi; ins; rew } ->
      let ops =
        List.map (fun (id, w) -> Graph.Delta.Reweight (id, w)) rew
        @ List.map (fun (u, v, w) -> Graph.Delta.Insert { Graph.u; v; w }) ins
      in
      Proto.Update { name = env.names.(gi); delta = Graph.Delta.of_ops ops }

(* The update applied to the benchmark's own copy. *)
let apply_update mir ins rew =
  let g = mir.g in
  let ws = Array.copy g.Oracle.ws in
  List.iter (fun (id, w) -> ws.(id) <- w) rew;
  let extra = Array.of_list ins in
  mir.g <-
    {
      Oracle.n = g.Oracle.n;
      us = Array.append g.Oracle.us (Array.map (fun (u, _, _) -> u) extra);
      vs = Array.append g.Oracle.vs (Array.map (fun (_, v, _) -> v) extra);
      ws = Array.append ws (Array.map (fun (_, _, w) -> w) extra);
    };
  List.iter (fun (u, v, _) -> Hashtbl.replace mir.adjacent (u, v) ()) ins;
  mir.update_pending <- false

type loop_result = {
  latencies : float list;
  wall : float;
  answers : answered list;
  failures : string list;  (** answers rejected during the loop *)
  served : int;
  rounds : int;
  bits : int;
}

(* Serves [total] requests through the closed loop.  With a tracer, the
   daemon's accountant and the loop's own calls open spans, and every tick
   that did work records the daemon-side time of its batch by kind. *)
let closed_loop ?tracer ?(updates = true) env ~seed ~total =
  let prng = Prng.create (seed + 17) in
  let acc = Daemon.accountant env.daemon in
  Rounds.set_tracer acc (Option.map (fun t -> t.tr) tracer);
  let r0 = Rounds.rounds acc and b0 = Rounds.bits acc in
  let outstanding = Array.make clients None in
  let issued = ref 0 and done_ = ref 0 in
  let latencies = ref [] and answers = ref [] and failures = ref [] in
  let next_id = ref 0 in
  let issue c =
    let p = draw ~update:(updates && !issued mod update_every = update_every - 1) prng env in
    let id = !next_id in
    incr next_id;
    incr issued;
    let frame = span tracer "proto.encode" (fun () -> Proto.encode_request ~id (request env p)) in
    let t0 = now () in
    outstanding.(c) <- Some (id, p, t0);
    let reader = env.readers.(c) in
    Proto.Reader.feed reader frame (Bytes.length frame);
    match Proto.Reader.next reader with
    | None -> failwith "closed loop: incomplete frame"
    | Some payload ->
        let id', req = span tracer "proto.decode" (fun () -> Proto.decode_request payload) in
        span tracer "serve.handle" (fun () -> Daemon.handle env.daemon ~client:c ~id:id' req)
  in
  let settle (c, frame) =
    let payload = Bytes.sub frame 4 (Bytes.length frame - 4) in
    let id, resp = span tracer "proto.decode" (fun () -> Proto.decode_response payload) in
    let t1 = now () in
    match outstanding.(c) with
    | Some (id0, p, t0) when id0 = id ->
        outstanding.(c) <- None;
        incr done_;
        latencies := (t1 -. t0) :: !latencies;
        let bad why = failures := Printf.sprintf "request %d: %s" id why :: !failures in
        (match (p, resp) with
        | P_solve { gi; b }, Proto.Solution { solution; iterations; _ } ->
            if tracer <> None then Layers.record "iterations" (float_of_int iterations);
            answers := A_solve { g = env.mirrors.(gi).g; b; x = solution } :: !answers
        | P_resist { gi; s; t }, Proto.Resistance_r { resistance; _ } ->
            answers := A_resist { g = env.mirrors.(gi).g; s; t; r = resistance } :: !answers
        | P_update { gi; ins; rew }, Proto.Update_r { m; rounds; _ } ->
            let mir = env.mirrors.(gi) in
            let expect = Oracle.m mir.g + List.length ins in
            if m <> expect then bad (Printf.sprintf "update reports m=%d, expected %d" m expect);
            if tracer <> None then Layers.record "update_rounds" (float_of_int rounds);
            apply_update mir ins rew
        | _, Proto.Error_r { message; _ } -> bad ("error response: " ^ message)
        | _ -> bad "response of the wrong kind");
        if !issued < total then issue c
    | _ -> failures := Printf.sprintf "unexpected response id %d" id :: !failures
  in
  let drain () = List.iter settle (Daemon.take_output env.daemon) in
  let hits0 = Metrics.counter (Daemon.metrics env.daemon) "serve.cache.hits"
  and misses0 = Metrics.counter (Daemon.metrics env.daemon) "serve.cache.misses" in
  let t_start = now () in
  for c = 0 to Stdlib.min clients total - 1 do
    issue c;
    drain ()
  done;
  while !done_ < total do
    let worked =
      span tracer "serve.tick" (fun () ->
          Daemon.tick env.daemon || Daemon.tick ~force:true env.daemon)
    in
    if not worked then failwith "closed loop: daemon idle with requests outstanding";
    (match tracer with
    | Some t -> (
        (* The tick span just closed is the root's newest child; its
           "serve" children are the daemon's batch execution. *)
        match (Trace.root t.tr).Trace.children with
        | tick :: _ ->
            let serve_s =
              List.fold_left
                (fun a (s : Trace.span) -> a +. (float_of_int s.Trace.wall_ns /. 1e9))
                0.0 tick.Trace.children
            in
            let out = Daemon.take_output env.daemon in
            let update_batch =
              List.exists
                (fun (c, _) ->
                  match outstanding.(c) with Some (_, P_update _, _) -> true | _ -> false)
                out
            in
            if update_batch then Layers.record "update_s" serve_s
            else begin
              Layers.record "solve_many_s" serve_s;
              Layers.record "query_s" (serve_s /. float_of_int (Stdlib.max 1 (List.length out)))
            end;
            List.iter settle out
        | [] -> ())
    | None -> ());
    drain ()
  done;
  let wall = now () -. t_start in
  let hits = Metrics.counter (Daemon.metrics env.daemon) "serve.cache.hits" - hits0
  and misses = Metrics.counter (Daemon.metrics env.daemon) "serve.cache.misses" - misses0 in
  if tracer <> None then
    Layers.record "cache_hit_ratio" (float_of_int hits /. float_of_int (Stdlib.max 1 (hits + misses)));
  Rounds.set_tracer acc None;
  {
    latencies = !latencies;
    wall;
    answers = List.rev !answers;
    failures = List.rev !failures;
    served = !done_;
    rounds = Rounds.rounds acc - r0;
    bits = Rounds.bits acc - b0;
  }

let check_answers answers =
  let bad = ref [] in
  List.iteri
    (fun i a ->
      match a with
      | A_solve { g; b; x } ->
          let r = Oracle.residual g ~b ~x in
          if not (r <= residual_tol) then
            bad := Printf.sprintf "solve answer %d: residual %.3g > %.3g" i r residual_tol :: !bad
      | A_resist { g; s; t; r } ->
          let want = Oracle.resistance g ~s ~t in
          if not (Float.abs (r -. want) <= resistance_tol *. want) then
            bad := Printf.sprintf "resistance answer %d: %.12g, CG gives %.12g" i r want :: !bad)
    answers;
  List.rev !bad

(* One untimed warm-up Solve through the loop. *)
let warm seed env =
  ignore (closed_loop ~updates:false env ~seed:(seed + 1000) ~total:1 : loop_result)

let report ~seed ~label (r : loop_result) =
  let failures = r.failures @ check_answers r.answers in
  List.iter (fun f -> Printf.printf "FAILED workload=serve %s fleet-seed=%d %s\n" label seed f) failures;
  Printf.printf
    "counters: %s requests=%d rounds=%d bits=%d rounds_per_op=%.3f bits_per_op=%.3f\n" label
    r.served r.rounds r.bits
    (float_of_int r.rounds /. float_of_int r.served)
    (float_of_int r.bits /. float_of_int r.served);
  List.length failures

let main (args : args) =
  let total = Stdlib.max 1000 (int_of_float (args.seconds *. float_of_int requests_per_second)) in
  (* A set-up is the fleet, the daemon with every handle prepared, the
     benchmark's copies and the warm-up. *)
  let env, setup_s = Runner.setup ~build:(fun () -> build args.seed) ~warm:(warm args.seed) in
  if not args.trace then begin
    let g0 = gc_mark () in
    let r = closed_loop env ~seed:args.seed ~total in
    let g1 = gc_mark () in
    let failed = report ~seed:args.seed ~label:"untraced" r in
    Printf.printf "gc: minor_words_per_op=%.0f major_collections_per_op=%.4f\n"
      ((g1.minor -. g0.minor) /. float_of_int r.served)
      (float_of_int (g1.major - g0.major) /. float_of_int r.served);
    let n = float_of_int r.served in
    print_result ~correct:(failed = 0) ~attempted:r.served ~failed
      [
        m "setup_s" "s" setup_s;
        m "time_to_solution_s" "s" (median r.latencies);
        m "throughput_ops_s" "ops/s" (float_of_int (r.served - failed) /. r.wall);
        m "latency_p99_s" "s" (percentile r.latencies 0.99);
        m "rounds_per_op" "rounds" (float_of_int r.rounds /. n);
        m "bits_per_op" "bits" (float_of_int r.bits /. n);
        m "peak_rss_mb" "MiB" (peak_rss_mb ());
      ]
  end
  else begin
    (* Two daemons over the same fleet serve the same request stream, one
       untraced and one traced, half the requests each. *)
    let half = Stdlib.max 1 (total / 2) in
    let g0 = gc_mark () in
    let plain = closed_loop env ~seed:args.seed ~total:half in
    let g1 = gc_mark () in
    let env2 = build args.seed in
    warm args.seed env2;
    let tracer = create_tracer () in
    let traced = closed_loop ~tracer env2 ~seed:args.seed ~total:half in
    let f1 = report ~seed:args.seed ~label:"untraced" plain in
    let f2 = report ~seed:args.seed ~label:"traced" traced in
    let same = same_counts (plain.rounds = traced.rounds && plain.bits = traced.bits) in
    let ns = nodes tracer in
    write_trace ~workload:"serve" ~seed:args.seed ns;
    let hist name =
      match Metrics.histogram (Daemon.metrics env2.daemon) name with
      | Some s when s.Metrics.count > 0 -> s.Metrics.sum /. float_of_int s.Metrics.count
      | _ -> 0.0
    in
    let open Layers in
    let n = float_of_int plain.served in
    print_result ~correct:(f1 + f2 = 0 && same) ~attempted:(plain.served + traced.served)
      ~failed:(f1 + f2)
      (complete
         [
           ("laplacian.iterations", mean_of "iterations");
           ("laplacian.query_s", mean_of "query_s");
           ("service.solve_many_s", mean_of "solve_many_s");
           ("service.update_s", mean_of "update_s");
           ("service.update_rounds", mean_of "update_rounds");
           ("service.cache_hit_ratio", mean_of "cache_hit_ratio");
           ("serve.handle_s", span_mean wall "serve.handle" ns);
           ("serve.tick_s", span_mean wall "serve.tick" ns);
           ("serve.batch_occupancy", hist "serve.batch_occupancy");
           ("serve.queue_wait_batches", hist "serve.queue_wait_batches");
           ("serve.proto_encode_s", span_mean wall "proto.encode" ns);
           ("serve.proto_decode_s", span_mean wall "proto.decode" ns);
           ("gc.minor_mwords_per_op", (g1.minor -. g0.minor) /. n /. 1e6);
           ("gc.major_collections_per_op", float_of_int (g1.major - g0.major) /. n);
           ("trace.overhead", traced.wall /. plain.wall);
         ])
  end
