(* The daemon core: request validation, admission, coalesced execution and
   response emission — everything except the sockets, so the test suite can
   drive it through the same entry points the event loop uses and pin its
   behaviour deterministically.

   Execution path per batch: all requests in a batch share one coalescing
   key (graph fingerprint + eps + kind), so they resolve to one Prepared
   handle and one [Prepared.solve_many] call — the solutions are
   bit-identical to issuing each request alone (the BATCH invariant), which
   is what makes coalescing transparent to clients.  The daemon's round
   accountant mirrors every prepare and query charge under the [serve]
   phase; wall-clock is read only through [Lbcc_obs.Clock] and only flows
   into latency histograms, never into scheduling decisions. *)

module Vec = Lbcc_linalg.Vec
module Graph = Lbcc_graph.Graph
module Rounds = Lbcc_net.Rounds
module Model = Lbcc_net.Model
module Metrics = Lbcc_obs.Metrics
module Clock = Lbcc_obs.Clock
module Json = Lbcc_obs.Json
module Ctx = Lbcc_service.Ctx
module Cache = Lbcc_service.Cache
module Prepared = Lbcc_service.Prepared
module Lbcc = Lbcc_core.Lbcc

type config = {
  sched : Sched.config;
  seed : int;
  cache_capacity : int;
      (* 0 = no handle reuse: every batch pays preprocessing afresh (the
         SERVE bench's serial-uncached baseline) *)
}

let default_config =
  { sched = Sched.default_config; seed = 1; cache_capacity = 8 }

type work =
  | W_solve of { entry : Fleet.entry; eps : float; b : Vec.t }
  | W_resist of { entry : Fleet.entry; eps : float; s : int; t : int }
  | W_flow of { nentry : Fleet.net_entry }
  | W_update of { entry : Fleet.entry; delta : Graph.Delta.t }

type pending_req = { client : int; id : int; work : work; t_admit : float }

type t = {
  cfg : config;
  fleet : Fleet.t;
  ctx : Ctx.t;
  metrics : Metrics.t;
  acc : Rounds.t;
  cache : Prepared.t Cache.t;
  sched : pending_req Sched.t;
  out : (int * Bytes.t) Queue.t;
  mutable served : int;
  mutable shutting_down : bool;
}

let fleet_bandwidth fleet =
  let n =
    List.fold_left
      (fun m (e : Fleet.entry) -> Stdlib.max m (Graph.n e.Fleet.graph))
      2 fleet.Fleet.entries
  in
  Model.bandwidth ~n

(* Replay a handle's one-time preprocessing charges onto the daemon
   accountant under the serve/prepare labels, so total served rounds
   reflect what this daemon actually paid — the quantity the SERVE bench's
   amortization claim divides by. *)
let mirror_prepare t h =
  Rounds.with_phase t.acc "serve" (fun () ->
      Prepared.replay t.acc (Prepared.prepare_breakdown h))

(* A capacity-0 cache retains nothing: every lookup misses and pays. *)
let handle_for t (entry : Fleet.entry) =
  let h, hit =
    Prepared.create_cached ~cache:t.cache ~ctx:t.ctx entry.Fleet.graph
  in
  if not hit then mirror_prepare t h;
  h

let create cfg fleet =
  let metrics = Metrics.create () in
  let ctx = Ctx.make ~seed:cfg.seed ~metrics () in
  let t =
    {
      cfg;
      fleet;
      ctx;
      metrics;
      acc = Rounds.create ~bandwidth:(fleet_bandwidth fleet);
      cache =
        Cache.create ~capacity:cfg.cache_capacity ~metrics
          ~metrics_prefix:"serve.cache" ();
      sched = Sched.create ~metrics cfg.sched;
      out = Queue.create ();
      served = 0;
      shutting_down = false;
    }
  in
  (* Warm start: prepare the fleet before the first request, where a
     cache can keep the handles. *)
  if cfg.cache_capacity > 0 then
    List.iter
      (fun e -> ignore (handle_for t e : Prepared.t))
      fleet.Fleet.entries;
  t

let metrics t = t.metrics
let accountant t = t.acc
let pending t = Sched.pending t.sched
let served t = t.served
let shutting_down t = t.shutting_down
let request_shutdown t = t.shutting_down <- true

let respond t ~client ~id response =
  Queue.push (client, Proto.encode_response ~id response) t.out

let take_output t =
  let rec pop acc =
    match Queue.take_opt t.out with
    | Some x -> pop (x :: acc)
    | None -> List.rev acc
  in
  pop []

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let quantiles_json t name =
  match Metrics.histogram t.metrics name with
  | None -> Json.Null
  | Some s ->
      Json.Obj
        [
          ("count", Json.Int s.Metrics.count);
          ("min", Json.Float s.Metrics.min);
          ("p50", Json.Float (Metrics.quantile s 0.5));
          ("p90", Json.Float (Metrics.quantile s 0.9));
          ("p99", Json.Float (Metrics.quantile s 0.99));
          ("max", Json.Float s.Metrics.max);
        ]

let stats_json t =
  (* The canonical counters are the ones the cache mirrors into the
     registry (Cache.create contract) — read them back from there rather
     than from the snapshot ints. *)
  let cache_json =
    Json.Obj
      [
        ("hits", Json.Int (Metrics.counter t.metrics "serve.cache.hits"));
        ("misses", Json.Int (Metrics.counter t.metrics "serve.cache.misses"));
        ( "evictions",
          Json.Int (Metrics.counter t.metrics "serve.cache.evictions") );
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "lbcc-serve-stats/1");
      ("served", Json.Int t.served);
      ("admitted", Json.Int (Sched.admitted t.sched));
      ("rejected", Json.Int (Sched.rejected t.sched));
      ("pending", Json.Int (Sched.pending t.sched));
      ("batches", Json.Int (Sched.batches t.sched));
      ("rounds", Json.Int (Rounds.rounds t.acc));
      ("bits", Json.Int (Rounds.bits t.acc));
      ("cache", cache_json);
      ( "slo",
        Json.Obj
          [
            ("latency_s", quantiles_json t "serve.latency_s");
            ("queue_wait_batches", quantiles_json t "serve.queue_wait_batches");
            ("batch_occupancy", quantiles_json t "serve.batch_occupancy");
          ] );
      ("metrics", Metrics.to_json t.metrics);
    ]

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

let err code message = Proto.Error_r { code; message }

let key_of_work = function
  | W_solve { entry; eps; _ } ->
      Printf.sprintf "s|%s|%Lx" entry.Fleet.fingerprint_hex
        (Int64.bits_of_float eps)
  | W_resist { entry; eps; _ } ->
      Printf.sprintf "r|%s|%Lx" entry.Fleet.fingerprint_hex
        (Int64.bits_of_float eps)
  | W_flow { nentry } -> Printf.sprintf "f|%s" nentry.Fleet.net_name
  (* Updates bin per graph *name*, not fingerprint: consecutive deltas to
     one graph coalesce into a batch and apply in admission order. *)
  | W_update { entry; _ } -> Printf.sprintf "u|%s" entry.Fleet.name

let admit t ~client ~id work =
  if t.shutting_down then
    respond t ~client ~id (err Proto.Overloaded "daemon is draining")
  else begin
    let req = { client; id; work; t_admit = Clock.now_s () } in
    if not (Sched.admit t.sched ~key:(key_of_work work) req) then
      respond t ~client ~id (err Proto.Overloaded "admission queue full")
  end

let handle t ~client ~id (req : Proto.request) =
  match req with
  | Proto.Stats ->
      respond t ~client ~id (Proto.Json_r (Json.to_string (stats_json t)))
  | Proto.Info ->
      respond t ~client ~id
        (Proto.Json_r (Json.to_string (Fleet.info_json t.fleet)))
  | Proto.Shutdown ->
      t.shutting_down <- true;
      respond t ~client ~id Proto.Ok_r
  | Proto.Solve { name; eps; b } -> (
      match Fleet.find t.fleet name with
      | None -> respond t ~client ~id (err Proto.Bad_request ("unknown graph " ^ name))
      | Some entry ->
          if Array.length b <> Graph.n entry.Fleet.graph then
            respond t ~client ~id
              (err Proto.Bad_request
                 (Printf.sprintf "rhs length %d, graph has %d vertices"
                    (Array.length b)
                    (Graph.n entry.Fleet.graph)))
          else admit t ~client ~id (W_solve { entry; eps; b }))
  | Proto.Resistance { name; eps; s; t = tgt } -> (
      match Fleet.find t.fleet name with
      | None -> respond t ~client ~id (err Proto.Bad_request ("unknown graph " ^ name))
      | Some entry ->
          let n = Graph.n entry.Fleet.graph in
          if s < 0 || s >= n || tgt < 0 || tgt >= n then
            respond t ~client ~id
              (err Proto.Bad_request
                 (Printf.sprintf "vertex pair (%d, %d) out of range [0, %d)" s
                    tgt n))
          else admit t ~client ~id (W_resist { entry; eps; s; t = tgt }))
  | Proto.Flow { name } -> (
      match Fleet.find_net t.fleet name with
      | None ->
          respond t ~client ~id (err Proto.Bad_request ("unknown network " ^ name))
      | Some nentry -> admit t ~client ~id (W_flow { nentry }))
  | Proto.Update { name; delta } -> (
      match Fleet.find t.fleet name with
      | None -> respond t ~client ~id (err Proto.Bad_request ("unknown graph " ^ name))
      | Some entry ->
          (* Fast-fail on ids beyond the current edge count; the definitive
             validation happens at execution time against the graph version
             the update actually lands on (earlier queued updates may have
             changed m either way). *)
          if Graph.Delta.max_id delta >= Graph.m entry.Fleet.graph then
            respond t ~client ~id
              (err Proto.Bad_request
                 (Printf.sprintf "delta references edge id >= m (%d)"
                    (Graph.m entry.Fleet.graph)))
          else if
            Array.exists
              (fun (e : Graph.edge) ->
                e.Graph.u >= Graph.n entry.Fleet.graph
                || e.Graph.v >= Graph.n entry.Fleet.graph)
              (Graph.Delta.inserts delta)
          then
            respond t ~client ~id
              (err Proto.Bad_request
                 (Printf.sprintf "insert endpoint >= n (%d)"
                    (Graph.n entry.Fleet.graph)))
          else admit t ~client ~id (W_update { entry; delta }))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

let finish t (req : pending_req) response =
  Metrics.observe (Some t.metrics) "serve.latency_s"
    (Clock.now_s () -. req.t_admit);
  t.served <- t.served + 1;
  respond t ~client:req.client ~id:req.id response

let rhs_of (req : pending_req) n =
  match req.work with
  | W_solve { b; _ } -> b
  | W_resist { s; t = tgt; _ } ->
      let b = Vec.zeros n in
      b.(s) <- b.(s) +. 1.0;
      b.(tgt) <- b.(tgt) -. 1.0;
      b
  | W_flow _ | W_update _ -> invalid_arg "Daemon.rhs_of: not a solve op"

let execute_solve_batch t (entry : Fleet.entry) eps reqs =
  let n = Graph.n entry.Fleet.graph in
  let handle = handle_for t entry in
  let bs = List.map (fun r -> rhs_of r n) reqs in
  let results =
    Rounds.with_phase t.acc "serve" (fun () ->
        Prepared.solve_many ~accountant:t.acc ~eps handle bs)
  in
  List.iter2
    (fun (req : pending_req) (q : Prepared.query_result) ->
      match req.work with
      | W_solve _ ->
          finish t req
            (Proto.Solution
               {
                 solution = q.Prepared.solution;
                 residual = q.Prepared.residual;
                 iterations = q.Prepared.iterations;
                 rounds = q.Prepared.rounds;
                 bits = q.Prepared.bits;
               })
      | W_resist { s; t = tgt; _ } ->
          finish t req
            (Proto.Resistance_r
               {
                 resistance = q.Prepared.solution.(s) -. q.Prepared.solution.(tgt);
                 rounds = q.Prepared.rounds;
                 bits = q.Prepared.bits;
               })
      | W_flow _ | W_update _ ->
          failwith "Daemon.execute_solve_batch: non-solve op in solve bin")
    reqs results

let execute_flow t (req : pending_req) =
  match req.work with
  | W_flow { nentry } ->
      let r = Lbcc.min_cost_max_flow ~ctx:t.ctx nentry.Fleet.net in
      Rounds.with_phase t.acc "serve" (fun () ->
          Rounds.charge t.acc ~bits:r.Lbcc.rounds.Lbcc.bits ~label:"mcmf-flow"
            ~rounds:r.Lbcc.rounds.Lbcc.total);
      finish t req
        (Proto.Flow_r
           {
             flow = r.Lbcc.flow;
             value = r.Lbcc.value;
             cost = r.Lbcc.cost;
             rounds = r.Lbcc.rounds.Lbcc.total;
             bits = r.Lbcc.rounds.Lbcc.bits;
           })
  | _ -> failwith "Daemon.execute_flow: non-flow op"

(* One update, in admission order within its batch.  Errors are isolated
   per request (a bad delta answers Bad_request and leaves the graph on its
   pre-delta version) so queued siblings still apply — and so a mid-batch
   failure can never double-respond to already-finished members. *)
let execute_update t (req : pending_req) =
  match req.work with
  | W_update { entry; delta } -> (
      try
        (* Patch the handle in place: fetch (or build) the handle for the
           current graph version, update it incrementally, and re-key the
           cache where the next prepare will look. *)
        let h = handle_for t entry in
        let h' =
          Rounds.with_phase t.acc "serve" (fun () ->
              Prepared.update_cached ~cache:t.cache ~accountant:t.acc h delta)
        in
        let g' = Prepared.graph h' and fingerprint = Prepared.fingerprint_hex h' in
        Fleet.set_graph entry g' ~fingerprint_hex:fingerprint;
        Metrics.inc (Some t.metrics) "serve.updates";
        finish t req
          (Proto.Update_r
             {
               n = Graph.n g';
               m = Graph.m g';
               fingerprint;
               rounds = Prepared.preprocessing_rounds h';
               bits = Prepared.preprocessing_bits h';
             })
      with
      | Invalid_argument msg -> finish t req (err Proto.Bad_request msg)
      | e -> finish t req (err Proto.Internal (Printexc.to_string e)))
  | _ -> failwith "Daemon.execute_update: non-update op"

let execute_batch t (batch : pending_req Sched.batch) =
  match batch.Sched.items with
  | [] -> ()
  | first :: _ -> (
      try
        match first.work with
        | W_flow _ -> List.iter (execute_flow t) batch.Sched.items
        | W_update _ ->
            (* execute_update isolates failures per request; iteration order
               is the batch's admission order, which fixes update visibility
               deterministically. *)
            List.iter (execute_update t) batch.Sched.items
        | W_solve { entry; eps; _ } | W_resist { entry; eps; _ } ->
            execute_solve_batch t entry eps batch.Sched.items
      with e ->
        (* A failing batch must not take the daemon down or swallow the
           requests: every member gets an Internal error response. *)
        let msg = Printexc.to_string e in
        List.iter
          (fun (req : pending_req) ->
            finish t req (err Proto.Internal msg))
          batch.Sched.items)

let tick ?(force = false) t =
  match Sched.dispatch ~force t.sched with
  | None -> false
  | Some batch ->
      execute_batch t batch;
      true

let drain t =
  while Sched.pending t.sched > 0 do
    ignore (tick ~force:true t : bool)
  done
