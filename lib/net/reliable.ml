module Graph = Lbcc_graph.Graph
module Inbox = Engine.Inbox

type 'msg packet = {
  vround : int;
  payload : 'msg option;
  acks : int array; (* ascending senders whose round-[vround] payload I hold *)
  halted : bool;
  control_bits : int; (* tag, round stamp and acks, see [packet_bits] *)
}

(* Per-neighbour flags, one byte per neighbour position. *)
let got_f = 1 (* round-[vround] payload held, in [got] *)
let future_f = 2 (* round-[vround+1] payload held, in [future] *)
let acked_f = 4 (* holds my round-[vround] payload *)
let halted_f = 8
let suspected_f = 16

(* Per-vertex wrapper state, mutated in place; the engine threads the
   record through unchanged.  Everything per neighbour lives in arrays
   indexed by the neighbour's position in [nbrs]. *)
type ('state, 'msg) vertex = {
  id : int;
  nbrs : int array;
      (* Ascending neighbour ids.  In the clique topology every vertex
         shares ONE [0..n-1] array, so a position is a vertex id, and the
         iteration helpers skip [id] on the fly.  On [Input_graph] this is
         the vertex's segment of the delivery plan without repeats. *)
  flags : Bytes.t;
  mutable got : 'msg option array; (* round-[vround] payloads *)
  mutable future : 'msg option array; (* round-[vround+1] payloads *)
  last_heard : int array; (* last real superstep heard, 0: never *)
  inner_inbox : 'msg Inbox.t;
  mutable inner : 'state;
  mutable inner_live : bool;
  mutable vround : int; (* 0 until the first inner step runs *)
  mutable out : 'msg option; (* inner broadcast for [vround] *)
  mutable zombie : bool; (* final round fully acked; acking neighbors out *)
  mutable packet : 'msg packet option; (* my broadcast, rebuilt when stale *)
  mutable stale : bool;
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

(* The packet's control fields are [Tag 4], [Int vround] and one
   [Vertex_id n] per ack.  [Payload.size] sums field sizes with a floor of
   one bit that the 2-bit tag already clears, and an ack exists only when
   n >= 2, where a vertex id costs at least one bit: summing the sizes
   separately charges the same bits without building the field list. *)
let control_bits ~n ~vround ~acks =
  Payload.size [ Tag 4; Int vround ] + (acks * Payload.size [ Vertex_id n ])

let packet_bits inner_bits (pkt : _ packet) =
  pkt.control_bits + match pkt.payload with None -> 0 | Some m -> inner_bits m

let flags v p = Char.code (Bytes.get v.flags p)
let has v p f = flags v p land f <> 0
let set v p f = Bytes.set v.flags p (Char.unsafe_chr (flags v p lor f))

(* Neighbors a vertex must still synchronize with: not self (the clique
   array contains it), not halted, not suspected.  The checks below walk
   positions rather than a materialized list, so the per-superstep
   barrier checks allocate nothing. *)
let is_waiting v p =
  v.nbrs.(p) <> v.id && not (has v p (halted_f lor suspected_f))

let rec none_waiting_from v p =
  p >= Array.length v.nbrs
  || ((not (is_waiting v p)) && none_waiting_from v (p + 1))

let none_waiting v = none_waiting_from v 0

(* Every waiting neighbour's round payload is held and has acked mine. *)
let rec barrier_from v p =
  let both = got_f lor acked_f in
  p >= Array.length v.nbrs
  || (((not (is_waiting v p)) || flags v p land both = both)
     && barrier_from v (p + 1))

let barrier_met v = barrier_from v 0

let rec mem_sorted a x lo hi =
  lo < hi
  &&
  let mid = (lo + hi) / 2 in
  let y = a.(mid) in
  y = x || if y < x then mem_sorted a x (mid + 1) hi else mem_sorted a x lo mid

(* The position of neighbour [u] at or after [p]: inboxes and [nbrs] both
   ascend, so one cursor walks an inbox. *)
let rec position v p u = if v.nbrs.(p) < u then position v (p + 1) u else p

let run ?accountant ?(patience = 30) ?faults ~label ~max_supersteps ~model
    ~graph ~size_bits ~init ~step () =
  if patience < 1 then invalid_arg "Reliable.run: patience must be >= 1";
  let n = Graph.n graph in
  let neighbors_of =
    match model.Model.topology with
    | Model.Clique ->
        let all_ids = Array.init n Fun.id in
        fun _ -> all_ids
    | Model.Input_graph ->
        (* Plan segments ascend with parallel edges adjacent; keep each
           neighbour once. *)
        let plan = Plan.plan graph in
        fun v ->
          let lo = plan.Plan.off.(v) and hi = plan.Plan.off.(v + 1) in
          let srcs = plan.Plan.srcs in
          let ids = ref [] in
          for i = hi - 1 downto lo do
            if i = lo || srcs.(i) <> srcs.(i - 1) then ids := srcs.(i) :: !ids
          done;
          Array.of_list !ids
  in
  let init_vertex v =
    let nbrs = neighbors_of v in
    let d = Array.length nbrs in
    {
      id = v;
      nbrs;
      flags = Bytes.make d '\000';
      got = Array.make d None;
      future = Array.make d None;
      last_heard = Array.make d 0;
      inner_inbox = Inbox.create ();
      inner = init v;
      inner_live = true;
      vround = 0;
      out = None;
      zombie = false;
      packet = None;
      stale = true;
    }
  in
  let receive v p pkt =
    if pkt.halted then set v p halted_f
    else if pkt.vround = v.vround then begin
      if not (has v p got_f) then begin
        set v p got_f;
        v.got.(p) <- pkt.payload;
        v.stale <- true
      end;
      if mem_sorted pkt.acks v.id 0 (Array.length pkt.acks) then
        set v p acked_f
    end
    else if pkt.vround = v.vround + 1 then begin
      (* The sender is one round ahead; it cannot have advanced without my
         round-[vround] payload, so this doubles as an ack. *)
      if not (has v p future_f) then begin
        set v p future_f;
        v.future.(p) <- pkt.payload
      end;
      set v p acked_f
    end
    else if pkt.vround > v.vround + 1 then
      (* Only reachable once this vertex is halted or the sender has
         suspected it; its payloads no longer matter. *)
      set v p acked_f
  in
  (* The inner inbox: the round's payloads in ascending sender order,
     explicit "no message" markers left out. *)
  let fill_inner_inbox v =
    let inbox = v.inner_inbox in
    Inbox.clear inbox;
    if v.vround > 0 then
      for p = 0 to Array.length v.nbrs - 1 do
        if has v p got_f then
          match v.got.(p) with
          | Some m -> Inbox.push inbox v.nbrs.(p) m
          | None -> ()
      done;
    inbox
  in
  let advance v =
    if v.inner_live then begin
      let inner', msg, continue =
        step ~round:(v.vround + 1) ~vertex:v.id v.inner (fill_inner_inbox v)
      in
      v.inner <- inner';
      v.out <- msg;
      v.vround <- v.vround + 1;
      v.inner_live <- continue;
      (* Next round's payloads become current; acks start over. *)
      for p = 0 to Array.length v.nbrs - 1 do
        let f = flags v p in
        let f' =
          (f land (halted_f lor suspected_f))
          lor if f land future_f <> 0 then got_f else 0
        in
        Bytes.set v.flags p (Char.unsafe_chr f')
      done;
      let consumed = v.got in
      v.got <- v.future;
      v.future <- consumed
    end
    else v.zombie <- true;
    v.stale <- true
  in
  (* Rebuilt only when its contents changed: a new payload held, a new
     round or the switch to zombie. *)
  let packet v =
    if v.stale then begin
      let acks =
        if v.zombie then [||]
        else begin
          let count = ref 0 in
          for p = 0 to Array.length v.nbrs - 1 do
            if has v p got_f then incr count
          done;
          let acks = Array.make !count 0 in
          let k = ref 0 in
          for p = 0 to Array.length v.nbrs - 1 do
            if has v p got_f then begin
              acks.(!k) <- v.nbrs.(p);
              incr k
            end
          done;
          acks
        end
      in
      let payload = if v.zombie then None else v.out in
      v.packet <-
        Some
          {
            vround = v.vround;
            payload;
            acks;
            halted = v.zombie;
            control_bits =
              control_bits ~n ~vround:v.vround ~acks:(Array.length acks);
          };
      v.stale <- false
    end;
    v.packet
  in
  let wrapper_step ~round ~vertex:_ v inbox =
    let p = ref 0 in
    for i = 0 to Inbox.length inbox - 1 do
      p := position v !p (Inbox.sender inbox i);
      receive v !p (Inbox.message inbox i);
      v.last_heard.(!p) <- round
    done;
    (* Suspect neighbors silent for [patience] consecutive real supersteps. *)
    for p = 0 to Array.length v.nbrs - 1 do
      if is_waiting v p && round - v.last_heard.(p) > patience then
        set v p suspected_f
    done;
    if v.vround = 0 then advance v
    else if (not v.zombie) && barrier_met v then advance v;
    let continue = (not v.zombie) || not (none_waiting v) in
    (v, packet v, continue)
  in
  let vertices, stats =
    Engine.run ?faults ~label ~max_supersteps ~model ~graph
      ~size_bits:(packet_bits size_bits)
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
