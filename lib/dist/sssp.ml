module Model = Lbcc_net.Model
module Tier = Lbcc_net.Tier
module Inbox = Lbcc_net.Engine.Inbox
module Graph = Lbcc_graph.Graph
module Payload = Lbcc_net.Payload

type state = {
  sdist : float;
  sparent : int;
  dirty : bool; (* improved since last broadcast *)
  idle : int; (* consecutive quiet supersteps, for local termination *)
}

type result = {
  dist : float array;
  parent : int array;
  rounds : int;
  supersteps : int;
  converged : bool;
  byz : Lbcc_net.Byzantine.Diag.t option;
}

let program ~graph ~source =
  let n = Graph.n graph in
  if source < 0 || source >= n then invalid_arg "Sssp.run: source out of range";
  (* Edge weight lookup per (vertex, neighbor): in Broadcast CONGEST a
     vertex knows the weights of its incident edges; in the clique models
     the weight of a non-edge is irrelevant because only graph neighbors
     relax through it — we look the edge up and skip strangers. *)
  let weight_to = Array.make n [] in
  Array.iteri
    (fun _ (e : Graph.edge) ->
      weight_to.(e.u) <- (e.v, e.w) :: weight_to.(e.u);
      weight_to.(e.v) <- (e.u, e.w) :: weight_to.(e.v))
    (Graph.edges graph);
  let weight_between v u =
    List.assoc_opt u weight_to.(v)
  in
  let init v =
    if v = source then { sdist = 0.0; sparent = -1; dirty = true; idle = 0 }
    else { sdist = infinity; sparent = -1; dirty = false; idle = 0 }
  in
  (* A vertex halts after [n] consecutive supersteps without improvement
     (the synchronous-model bound on the number of relaxation phases). *)
  let quiet_limit = n in
  let step ~round:_ ~vertex (st : state) inbox =
    let best = ref st in
    (* An indexed walk, not [Inbox.iter]: most steps of a quiet vertex see
       an empty inbox, and a closure would cost words on every one. *)
    for i = 0 to Inbox.length inbox - 1 do
      let sender = Inbox.sender inbox i in
      match weight_between vertex sender with
      | Some w ->
          let d = Inbox.message inbox i in
          if d +. w < !best.sdist -. 1e-12 then
            best := { !best with sdist = d +. w; sparent = sender; dirty = true }
      | None -> ()
    done;
    let st = !best in
    if st.dirty then ({ st with dirty = false; idle = 0 }, Some st.sdist, true)
    else begin
      let st = { st with idle = st.idle + 1 } in
      (st, None, st.idle < quiet_limit)
    end
  in
  (init, step)

(* Distances settle after <= n-1 relaxation waves, then each vertex sits
   out [n] quiet supersteps: 4(n+2) bounds the sum with slack. *)
let max_supersteps n = 4 * (n + 2)

(* Payload poison for tampered deliveries: shrink the announced distance,
   the worst case for min-based relaxation (an inflated distance would be
   masked by the protocol's own monotonicity). *)
let tamper ~salt d = (d *. 0.5) -. float_of_int (1 + (salt land 0xF))

let run ?accountant ?faults ?patience ?(reliability = Model.None) ~model ~graph
    ~source () =
  let n = Graph.n graph in
  let init, step = program ~graph ~source in
  let { Tier.states; stats; supersteps; byz } =
    Tier.run ?accountant ?faults ?patience ~reliability ~tamper ~label:"sssp"
      ~model ~graph
      ~size_bits:(fun d -> Payload.weight_bits d)
      ~init ~step
      ~max_supersteps:(max_supersteps n)
      ()
  in
  {
    dist = Array.map (fun s -> s.sdist) states;
    parent = Array.map (fun s -> s.sparent) states;
    rounds = stats.Lbcc_net.Engine.rounds;
    supersteps;
    converged = stats.Lbcc_net.Engine.converged;
    byz;
  }

let run_reliable ?accountant ?faults ?patience =
  run ?accountant ?faults ?patience ~reliability:Model.Crash_safe
