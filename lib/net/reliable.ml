module Graph = Lbcc_graph.Graph

type 'msg packet = {
  vround : int;
  payload : 'msg option;
  acks : int list; (* senders whose round-[vround] payload I hold *)
  halted : bool;
}

(* Per-vertex wrapper state.  The tables are mutated in place; the engine
   threads the record through unchanged. *)
type ('state, 'msg) vertex = {
  id : int;
  nbrs : int array;
      (* In the clique topology every vertex shares ONE [0..n-1] array and
         the iteration helpers skip [id] on the fly — building n explicit
         (n-1)-element neighbor lists was the legacy engine's O(n^2) setup
         cost.  On [Input_graph] this is the vertex's own adjacency, in
         [Graph.neighbors] order. *)
  mutable inner : 'state;
  mutable inner_live : bool;
  mutable vround : int; (* 0 until the first inner step runs *)
  mutable out : 'msg option; (* inner broadcast for [vround] *)
  mutable zombie : bool; (* final round fully acked; acking neighbors out *)
  mutable got : (int, 'msg option) Hashtbl.t; (* sender -> round-[vround] payload *)
  mutable future : (int, 'msg option) Hashtbl.t; (* sender -> round-[vround+1] payload *)
  acked : (int, unit) Hashtbl.t; (* neighbors holding my round-[vround] payload *)
  halted_nbrs : (int, unit) Hashtbl.t;
  suspected : (int, unit) Hashtbl.t;
  last_heard : (int, int) Hashtbl.t; (* neighbor -> last real superstep heard *)
}

type 'state result = {
  states : 'state array;
  stats : Engine.stats;
  virtual_supersteps : int;
}

let retransmit_label label = label ^ "/retransmit"

let settle ?accountant ~label ~overhead_label ~virtual_supersteps
    (stats : Engine.stats) =
  let protocol_rounds = Stdlib.min virtual_supersteps stats.Engine.rounds in
  let overhead_rounds = stats.Engine.rounds - protocol_rounds in
  (* The per-superstep bit maxima are not recoverable after the fact, so the
     aggregate bits the real execution broadcast are attributed to the
     protocol label; the overhead label carries rounds only. *)
  (match accountant with
  | Some acc ->
      Rounds.charge acc ~label ~bits:stats.Engine.total_bits
        ~rounds:protocol_rounds;
      Rounds.charge acc ~label:overhead_label ~rounds:overhead_rounds
  | None -> ());
  overhead_rounds

let packet_bits ~n inner_bits (pkt : _ packet) =
  let open Payload in
  let fields =
    Tag 4 :: Int pkt.vround :: List.map (fun _ -> Vertex_id n) pkt.acks
  in
  size fields + (match pkt.payload with None -> 0 | Some m -> inner_bits m)

(* Neighbors a vertex must still synchronize with: not self (the clique
   array contains it), not halted, not suspected.  Exposed as iteration
   helpers rather than a materialized list so the per-superstep barrier
   checks allocate nothing. *)
let is_waiting v u =
  u <> v.id
  && (not (Hashtbl.mem v.halted_nbrs u))
  && not (Hashtbl.mem v.suspected u)

let for_all_waiting v f =
  Array.for_all (fun u -> (not (is_waiting v u)) || f u) v.nbrs

let iter_waiting v f = Array.iter (fun u -> if is_waiting v u then f u) v.nbrs
let none_waiting v = for_all_waiting v (fun _ -> false)

let barrier_met v =
  for_all_waiting v (fun u -> Hashtbl.mem v.got u && Hashtbl.mem v.acked u)

let inbox_of_got got =
  Lbcc_util.Tbl.sorted_bindings ~compare:Int.compare got
  |> List.filter_map (fun (s, p) ->
         match p with Some m -> Some (s, m) | None -> None)

let run ?accountant ?(patience = 30) ?faults ~label ~max_supersteps ~model
    ~graph ~size_bits ~init ~step () =
  if patience < 1 then invalid_arg "Reliable.run: patience must be >= 1";
  let n = Graph.n graph in
  let all_ids =
    match model.Model.topology with
    | Model.Clique -> Array.init n Fun.id
    | Model.Input_graph -> [||]
  in
  let neighbors_of v =
    match model.Model.topology with
    | Model.Input_graph ->
        Array.of_list (List.map fst (Graph.neighbors graph v))
    | Model.Clique -> all_ids
  in
  let init_vertex v =
    {
      id = v;
      nbrs = neighbors_of v;
      inner = init v;
      inner_live = true;
      vround = 0;
      out = None;
      zombie = false;
      got = Hashtbl.create 8;
      future = Hashtbl.create 8;
      acked = Hashtbl.create 8;
      halted_nbrs = Hashtbl.create 8;
      suspected = Hashtbl.create 8;
      last_heard = Hashtbl.create 8;
    }
  in
  let receive v (sender, pkt) =
    if pkt.halted then Hashtbl.replace v.halted_nbrs sender ();
    if not pkt.halted then begin
      if pkt.vround = v.vround then begin
        if not (Hashtbl.mem v.got sender) then
          Hashtbl.replace v.got sender pkt.payload;
        if List.mem v.id pkt.acks then Hashtbl.replace v.acked sender ()
      end
      else if pkt.vround = v.vround + 1 then begin
        (* The sender is one round ahead; it cannot have advanced without my
           round-[vround] payload, so this doubles as an ack. *)
        if not (Hashtbl.mem v.future sender) then
          Hashtbl.replace v.future sender pkt.payload;
        Hashtbl.replace v.acked sender ()
      end
      else if pkt.vround > v.vround + 1 then
        (* Only reachable once this vertex is halted or the sender has
           suspected it; its payloads no longer matter. *)
        Hashtbl.replace v.acked sender ()
    end
  in
  let advance v =
    if v.inner_live then begin
      let inbox = if v.vround = 0 then [] else inbox_of_got v.got in
      let inner', msg, continue =
        step ~round:(v.vround + 1) ~vertex:v.id v.inner inbox
      in
      v.inner <- inner';
      v.out <- msg;
      v.vround <- v.vround + 1;
      v.inner_live <- continue;
      Hashtbl.reset v.acked;
      let consumed = v.got in
      v.got <- v.future;
      Hashtbl.reset consumed;
      v.future <- consumed
    end
    else v.zombie <- true
  in
  let wrapper_step ~round ~vertex:_ v inbox =
    List.iter
      (fun (sender, pkt) ->
        receive v (sender, pkt);
        Hashtbl.replace v.last_heard sender round)
      inbox;
    (* Suspect neighbors silent for [patience] consecutive real supersteps. *)
    iter_waiting v (fun u ->
        let heard =
          match Hashtbl.find_opt v.last_heard u with Some r -> r | None -> 0
        in
        if round - heard > patience then Hashtbl.replace v.suspected u ());
    if v.vround = 0 then advance v
    else if (not v.zombie) && barrier_met v then advance v;
    if v.zombie then begin
      let done_ = none_waiting v in
      let pkt = { vround = v.vround; payload = None; acks = []; halted = true } in
      (v, Some pkt, not done_)
    end
    else begin
      let acks = Lbcc_util.Tbl.sorted_keys ~compare:Int.compare v.got in
      let pkt =
        { vround = v.vround; payload = v.out; acks; halted = false }
      in
      (v, Some pkt, true)
    end
  in
  let vertices, stats =
    Engine.run ?faults ~label ~max_supersteps ~model ~graph
      ~size_bits:(packet_bits ~n size_bits)
      ~init:init_vertex ~step:wrapper_step ()
  in
  (* [vround] is monotone, so the max over final values equals the max ever
     reached. *)
  let virtual_supersteps =
    Array.fold_left (fun m v -> Stdlib.max m v.vround) 0 vertices
  in
  ignore
    (settle ?accountant ~label ~overhead_label:(retransmit_label label)
       ~virtual_supersteps stats
      : int);
  { states = Array.map (fun v -> v.inner) vertices; stats; virtual_supersteps }
