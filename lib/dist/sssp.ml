module Engine = Lbcc_net.Engine
module Model = Lbcc_net.Model
module Reliable = Lbcc_net.Reliable
module Byzantine = Lbcc_net.Byzantine
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
    List.iter
      (fun (sender, d) ->
        match weight_between vertex sender with
        | Some w ->
            if d +. w < !best.sdist -. 1e-12 then
              best := { !best with sdist = d +. w; sparent = sender; dirty = true }
        | None -> ())
      inbox;
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

let result_of states ~rounds ~supersteps ~converged =
  {
    dist = Array.map (fun s -> s.sdist) states;
    parent = Array.map (fun s -> s.sparent) states;
    rounds;
    supersteps;
    converged;
  }

(* Payload poison for tampered deliveries: shrink the announced distance,
   the worst case for min-based relaxation (an inflated distance would be
   masked by the protocol's own monotonicity). *)
let tamper ~salt d = (d *. 0.5) -. float_of_int (1 + (salt land 0xF))

let run ?accountant ?faults ~model ~graph ~source () =
  let n = Graph.n graph in
  let init, step = program ~graph ~source in
  let states, stats =
    (* Charges land under ~label at the caller's phase scope: the runner is
       the public API and must not impose one (fingerprint-stable). *)
    (* lbcc-lint: allow typ-phase-flow *)
    Engine.run ?accountant ?faults ~tamper ~label:"sssp" ~model ~graph
      ~size_bits:(fun d -> Payload.weight_bits d)
      ~init ~step
      ~max_supersteps:(max_supersteps n)
      ()
  in
  result_of states ~rounds:stats.Engine.rounds ~supersteps:stats.Engine.supersteps
    ~converged:stats.Engine.converged

let run_byzantine ?accountant ?faults ?retries ~model ~graph ~source () =
  let n = Graph.n graph in
  let init, step = program ~graph ~source in
  let r =
    (* Charges land under ~label at the caller's phase scope: the runner is
       the public API and must not impose one (fingerprint-stable). *)
    (* lbcc-lint: allow typ-phase-flow *)
    Byzantine.run ?accountant ?faults ?retries ~tamper ~label:"sssp" ~model
      ~graph
      ~size_bits:(fun d -> Payload.weight_bits d)
      ~init ~step
      ~max_supersteps:(100 * max_supersteps n)
      ()
  in
  ( result_of r.Byzantine.states ~rounds:r.Byzantine.stats.Engine.rounds
      ~supersteps:r.Byzantine.virtual_supersteps
      ~converged:r.Byzantine.stats.Engine.converged,
    Byzantine.diag r )

let run_reliable ?accountant ?faults ?patience
    ?(reliability = Model.Crash_safe) ~model ~graph ~source () =
  match reliability with
  | Model.None -> run ?accountant ?faults ~model ~graph ~source ()
  | Model.Byzantine_safe ->
      fst (run_byzantine ?accountant ?faults ~model ~graph ~source ())
  | Model.Crash_safe ->
      let n = Graph.n graph in
      let init, step = program ~graph ~source in
      let r =
        (* Charges land under ~label at the caller's phase scope: the runner is
       the public API and must not impose one (fingerprint-stable). *)
        (* lbcc-lint: allow typ-phase-flow *)
        Reliable.run ?accountant ?faults ?patience ~label:"sssp" ~model ~graph
          ~size_bits:(fun d -> Payload.weight_bits d)
          ~init ~step
          ~max_supersteps:(100 * max_supersteps n)
          ()
      in
      result_of r.Reliable.states ~rounds:r.Reliable.stats.Engine.rounds
        ~supersteps:r.Reliable.virtual_supersteps
        ~converged:r.Reliable.stats.Engine.converged
