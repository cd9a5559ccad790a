module Graph = Lbcc_graph.Graph
module Model = Lbcc_net.Model
module Tier = Lbcc_net.Tier
module Inbox = Lbcc_net.Engine.Inbox

type state = {
  best : int;
  changed : bool;
  idle : int;
}

type result = {
  leader : int;
  rounds : int;
  supersteps : int;
  converged : bool;
  byz : Lbcc_net.Byzantine.Diag.t option;
}

(* In the clique topology one broadcast round suffices: every vertex
   hears every id and can halt immediately.  On the input graph, flood
   the smallest id and halt after [n] quiet supersteps (a vertex cannot
   locally distinguish "stable" from "the wave is still far away"
   earlier than that). *)
let program ~n ~topology =
  let init v = { best = v; changed = true; idle = 0 } in
  let step =
    match topology with
    | Model.Clique ->
        fun ~round ~vertex:_ (st : state) inbox ->
          if round = 1 then (st, Some st.best, true)
          else begin
            let best =
              Inbox.fold (fun acc _ b -> Stdlib.min acc b) st.best inbox
            in
            ({ st with best }, None, false)
          end
    | Model.Input_graph ->
        fun ~round:_ ~vertex:_ (st : state) inbox ->
          let best =
            Inbox.fold (fun acc _ b -> Stdlib.min acc b) st.best inbox
          in
          let changed = best < st.best in
          let st = { best; changed; idle = (if changed then 0 else st.idle + 1) } in
          if st.changed || st.idle <= 1 then (st, Some st.best, st.idle < n)
          else (st, None, st.idle < n)
  in
  (init, step)

(* Flooding takes <= n-1 supersteps, then n quiet ones before the last
   vertex halts: 2(n+2) bounds it with slack. *)
let max_supersteps n = 2 * (n + 2)

let check_input ~model ~graph =
  let n = Graph.n graph in
  if n = 0 then invalid_arg "Leader.run: empty graph";
  if model.Model.topology = Model.Input_graph && not (Graph.is_connected graph)
  then invalid_arg "Leader.run: graph must be connected";
  n

(* Payload poison for tampered deliveries: a forged id below every honest
   one, which min-id flooding believes unconditionally — the starkest
   possible corruption of the election. *)
let tamper ~salt b = -(1 + (b lxor (salt land 0x3F)))

let run ?accountant ?faults ?patience ?(reliability = Model.None) ~model ~graph
    () =
  let n = check_input ~model ~graph in
  let init, step = program ~n ~topology:model.Model.topology in
  let { Tier.states; stats; supersteps; byz } =
    Tier.run ?accountant ?faults ?patience ~reliability ~tamper ~label:"leader"
      ~model ~graph
      ~size_bits:(fun _ -> Lbcc_util.Bits.id_bits ~n)
      ~init ~step
      ~max_supersteps:(max_supersteps n)
      ()
  in
  let leader = states.(0).best in
  (* Under faults a crashed vertex keeps a stale [best]; agreement is only
     asserted on clean converged runs. *)
  if Option.is_none faults && stats.Lbcc_net.Engine.converged then
    Array.iter (fun s -> assert (s.best = leader)) states;
  {
    leader;
    rounds = stats.Lbcc_net.Engine.rounds;
    supersteps;
    converged = stats.Lbcc_net.Engine.converged;
    byz;
  }
