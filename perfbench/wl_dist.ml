(* dist: the message-passing engine.  A round holds, on sparse weighted
   Erdős–Rényi graphs (average degree 8, weights <= 8):
   - Bellman–Ford SSSP on the broadcast congested clique, then BFS on
     broadcast CONGEST, one operation per graph, 6 graphs each of
     n = 256, 320 and 384.
     (On the clique, Bfs floods the communication topology, so every level
     is 1 there; on broadcast CONGEST it computes G's hop distances.);
   - crash-safe SSSP (Sssp.run_reliable behind Reliable) on broadcast
     CONGEST under seeded 10% message drops, 6 graphs each of n = 96 and
     128.
   Every distance and BFS level is checked against the benchmark's own
   Dijkstra and BFS. *)

open Common
module Graph = Lbcc_graph.Graph
module Rounds = Lbcc_net.Rounds
module Model = Lbcc_net.Model
module Fault = Lbcc_net.Fault
module Bfs = Lbcc_dist.Bfs
module Sssp = Lbcc_dist.Sssp
module Prng = Lbcc_util.Prng

let clique_sizes = [ 256; 320; 384 ]
let reliable_sizes = [ 96; 128 ]

(* Graphs per size: enough distinct inputs that a seed's figures do not
   hang on one graph. *)
let per_size = 6
let drop_prob = 0.1

let graph instance n =
  Lbcc_graph.Gen.erdos_renyi_connected (Prng.create instance) ~n
    ~p:(8.0 /. float_of_int n) ~w_max:8

let accountant tracer n =
  let acc = Rounds.create ~bandwidth:(Model.bandwidth ~n) in
  Rounds.set_tracer acc (Option.map (fun t -> t.tr) tracer);
  acc

let same_dist a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> x = y || Float.abs (x -. y) <= 1e-9 *. Float.abs y) a b

let retransmit_rounds acc =
  List.fold_left
    (fun s (label, r) ->
      let k = String.length label in
      if k >= 10 && String.sub label (k - 10) 10 = "retransmit" then s + r else s)
    0 (Rounds.breakdown acc)

let clique_op ~instance ~n =
  let g = graph instance n in
  let og = to_oracle g in
  let source = Prng.int (Prng.create (instance + 7)) n in
  let model = Model.broadcast_congested_clique in
  let run tracer =
    let acc = accountant tracer n in
    let s = span tracer "dist.sssp" (fun () -> Sssp.run ~accountant:acc ~model ~graph:g ~source ()) in
    let b =
      span tracer "dist.bfs" (fun () ->
          Bfs.run ~accountant:acc ~model:Model.broadcast_congest ~graph:g ~source ())
    in
    if tracer <> None then begin
      Layers.record "supersteps" (float_of_int (b.Bfs.supersteps + s.Sssp.supersteps));
      Layers.record "vertex_rounds" (float_of_int (n * Rounds.rounds acc))
    end;
    fun () ->
      let rounds = Rounds.rounds acc and bits = Rounds.bits acc in
      if not (b.Bfs.converged && s.Sssp.converged) then fail ~rounds ~bits "did not converge"
      else if b.Bfs.dist <> Oracle.bfs og source then fail ~rounds ~bits "BFS levels differ from BFS"
      else if not (same_dist s.Sssp.dist (Oracle.dijkstra og source)) then
        fail ~rounds ~bits "SSSP distances differ from Dijkstra"
      else pass ~rounds ~bits
  in
  {
    Runner.label = Printf.sprintf "clique n=%d instance-seed=%d" n instance;
    cls = Printf.sprintf "clique n=%d" n;
    known_fault = false;
    run;
  }

let reliable_op ~instance ~n =
  let g = graph instance n in
  let og = to_oracle g in
  let source = Prng.int (Prng.create (instance + 7)) n in
  let run tracer =
    let acc = accountant tracer n in
    let faults = Fault.create ~seed:instance (Fault.spec ~drop_prob ()) in
    let s =
      span tracer "dist.sssp_reliable" (fun () ->
          Sssp.run_reliable ~accountant:acc ~faults ~model:Model.broadcast_congest ~graph:g
            ~source ())
    in
    if tracer <> None then begin
      Layers.record "supersteps" (float_of_int s.Sssp.supersteps);
      Layers.record "vertex_rounds" (float_of_int (n * Rounds.rounds acc));
      Layers.record "retransmit" (float_of_int (retransmit_rounds acc))
    end;
    fun () ->
      let rounds = Rounds.rounds acc and bits = Rounds.bits acc in
      if not s.Sssp.converged then fail ~rounds ~bits "did not converge"
      else if not (same_dist s.Sssp.dist (Oracle.dijkstra og source)) then
        fail ~rounds ~bits "reliable SSSP distances differ from Dijkstra"
      else pass ~rounds ~bits
  in
  {
    Runner.label = Printf.sprintf "reliable n=%d drop=%.2f instance-seed=%d" n drop_prob instance;
    cls = Printf.sprintf "reliable n=%d" n;
    known_fault = false;
    run;
  }

let build seed () =
  let base = seed * 1000 in
  let each sizes = List.concat_map (fun n -> List.init per_size (fun _ -> n)) sizes in
  Array.of_list
    (List.mapi (fun i n -> clique_op ~instance:(base + i) ~n) (each clique_sizes)
    @ List.mapi (fun i n -> reliable_op ~instance:(base + 100 + i) ~n) (each reliable_sizes))

let layers ns (traced : Runner.phase) =
  let open Layers in
  let clique_ops = List.length (named "dist.sssp" ns)
  and reliable_ops = List.length (named "dist.sssp_reliable" ns) in
  let vr = Option.value (Hashtbl.find_opt recorded "vertex_rounds") ~default:[] in
  [
    ("net.supersteps", mean_of "supersteps");
    ("net.vertex_rounds_per_s", sum vr /. Runner.op_seconds traced);
    ( "net.retransmit_rounds",
      if reliable_ops = 0 then 0.0 else mean_of "retransmit" );
    ("dist.sssp_s", if clique_ops = 0 then 0.0 else span_mean wall "dist.sssp" ns);
    ("dist.bfs_s", span_mean wall "dist.bfs" ns);
  ]

(* Wall time of one round (30 operations) on the reference host, a 2-vCPU
   virtual machine on one lane; a 20-s run therefore does 2 rounds. *)
let round_s = 10.0

let main args = Runner.main ~args ~round_s ~build:(build args.seed) ~layers
