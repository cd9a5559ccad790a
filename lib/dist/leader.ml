module Engine = Lbcc_net.Engine
module Reliable = Lbcc_net.Reliable
module Byzantine = Lbcc_net.Byzantine
module Graph = Lbcc_graph.Graph
module Model = Lbcc_net.Model

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
              List.fold_left (fun acc (_, b) -> Stdlib.min acc b) st.best inbox
            in
            ({ st with best }, None, false)
          end
    | Model.Input_graph ->
        fun ~round:_ ~vertex:_ (st : state) inbox ->
          let best =
            List.fold_left (fun acc (_, b) -> Stdlib.min acc b) st.best inbox
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

(* Under faults a crashed vertex keeps a stale [best]; agreement is only
   asserted on clean converged runs. *)
let result_of ?faults states ~rounds ~supersteps ~converged =
  let leader = states.(0).best in
  (match faults with
  | None when converged ->
      Array.iter (fun s -> assert (s.best = leader)) states
  | _ -> ());
  { leader; rounds; supersteps; converged }

(* Payload poison for tampered deliveries: a forged id below every honest
   one, which min-id flooding believes unconditionally — the starkest
   possible corruption of the election. *)
let tamper ~salt b = -(1 + (b lxor (salt land 0x3F)))

let run ?accountant ?faults ~model ~graph () =
  let n = check_input ~model ~graph in
  let init, step = program ~n ~topology:model.Model.topology in
  let states, stats =
    (* Charges land under ~label at the caller's phase scope: the runner is
       the public API and must not impose one (fingerprint-stable). *)
    (* lbcc-lint: allow typ-phase-flow *)
    Engine.run ?accountant ?faults ~tamper ~label:"leader" ~model ~graph
      ~size_bits:(fun _ -> Lbcc_util.Bits.id_bits ~n)
      ~init ~step
      ~max_supersteps:(max_supersteps n)
      ()
  in
  result_of ?faults states ~rounds:stats.Engine.rounds
    ~supersteps:stats.Engine.supersteps ~converged:stats.Engine.converged

let run_byzantine ?accountant ?faults ?retries ~model ~graph () =
  let n = check_input ~model ~graph in
  let init, step = program ~n ~topology:model.Model.topology in
  let r =
    (* Charges land under ~label at the caller's phase scope: the runner is
       the public API and must not impose one (fingerprint-stable). *)
    (* lbcc-lint: allow typ-phase-flow *)
    Byzantine.run ?accountant ?faults ?retries ~tamper ~label:"leader" ~model
      ~graph
      ~size_bits:(fun _ -> Lbcc_util.Bits.id_bits ~n)
      ~init ~step
      ~max_supersteps:(100 * max_supersteps n)
      ()
  in
  ( result_of ?faults r.Byzantine.states ~rounds:r.Byzantine.stats.Engine.rounds
      ~supersteps:r.Byzantine.virtual_supersteps
      ~converged:r.Byzantine.stats.Engine.converged,
    Byzantine.diag r )

let run_reliable ?accountant ?faults ?patience
    ?(reliability = Model.Crash_safe) ~model ~graph () =
  match reliability with
  | Model.None -> run ?accountant ?faults ~model ~graph ()
  | Model.Byzantine_safe ->
      fst (run_byzantine ?accountant ?faults ~model ~graph ())
  | Model.Crash_safe ->
      let n = check_input ~model ~graph in
      let init, step = program ~n ~topology:model.Model.topology in
      let r =
        (* Charges land under ~label at the caller's phase scope: the runner is
       the public API and must not impose one (fingerprint-stable). *)
        (* lbcc-lint: allow typ-phase-flow *)
        Reliable.run ?accountant ?faults ?patience ~label:"leader" ~model
          ~graph
          ~size_bits:(fun _ -> Lbcc_util.Bits.id_bits ~n)
          ~init ~step
          ~max_supersteps:(100 * max_supersteps n)
          ()
      in
      result_of ?faults r.Reliable.states
        ~rounds:r.Reliable.stats.Engine.rounds
        ~supersteps:r.Reliable.virtual_supersteps
        ~converged:r.Reliable.stats.Engine.converged
