open Lbcc_util
module Engine = Lbcc_net.Engine
module Model = Lbcc_net.Model
module Reliable = Lbcc_net.Reliable
module Byzantine = Lbcc_net.Byzantine
module Graph = Lbcc_graph.Graph

type state = {
  sdist : int;
  sparent : int;
  announced : bool;
}

type result = {
  dist : int array;
  parent : int array;
  rounds : int;
  supersteps : int;
  converged : bool;
}

(* The vertex program, shared by the lossless runner and the
   reliable-broadcast runner. *)
let program ~n ~source =
  if source < 0 || source >= n then invalid_arg "Bfs.run: source out of range";
  let init v =
    if v = source then { sdist = 0; sparent = -1; announced = false }
    else { sdist = max_int; sparent = -1; announced = false }
  in
  let step ~round:_ ~vertex:_ (st : state) inbox =
    if st.sdist < max_int then
      if st.announced then (st, None, false)
      else ({ st with announced = true }, Some st.sdist, true)
    else begin
      (* Adopt the first (lowest-id) announcer as parent and announce the
         new distance in the same superstep. *)
      match inbox with
      | (sender, d) :: _ ->
          ({ sdist = d + 1; sparent = sender; announced = true }, Some (d + 1), true)
      | [] -> (st, None, true)
    end
  in
  (init, step)

(* The wave crosses the graph in <= n-1 supersteps and every vertex
   announces once more before halting, so 2(n+1) leaves slack; a run that
   exhausts the cap reports [converged = false]. *)
let max_supersteps n = 2 * (n + 1)

let result_of states ~rounds ~supersteps ~converged =
  {
    dist = Array.map (fun s -> s.sdist) states;
    parent = Array.map (fun s -> s.sparent) states;
    rounds;
    supersteps;
    converged;
  }

(* Payload poison for tampered deliveries: flip low distance bits, always
   changing the value.  Tampering is only visible when a runner passes this
   to the engine — see the determinism contract in {!Lbcc_net.Fault}. *)
let tamper ~salt d = d lxor (1 lor (salt land 0x7))

let run ?accountant ?faults ~model ~graph ~source () =
  let n = Graph.n graph in
  let init, step = program ~n ~source in
  let states, stats =
    (* Charges land under ~label at the caller's phase scope: the runner is
       the public API and must not impose one (fingerprint-stable). *)
    (* lbcc-lint: allow typ-phase-flow *)
    Engine.run ?accountant ?faults ~tamper ~label:"bfs" ~model ~graph
      ~size_bits:(fun d -> Bits.int_bits d)
      ~init ~step
      ~max_supersteps:(max_supersteps n)
      ()
  in
  result_of states ~rounds:stats.Engine.rounds ~supersteps:stats.Engine.supersteps
    ~converged:stats.Engine.converged

let run_byzantine ?accountant ?faults ?retries ~model ~graph ~source () =
  let n = Graph.n graph in
  let init, step = program ~n ~source in
  let r =
    (* Charges land under ~label at the caller's phase scope: the runner is
       the public API and must not impose one (fingerprint-stable). *)
    (* lbcc-lint: allow typ-phase-flow *)
    Byzantine.run ?accountant ?faults ?retries ~tamper ~label:"bfs" ~model
      ~graph
      ~size_bits:(fun d -> Bits.int_bits d)
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
      let init, step = program ~n ~source in
      let r =
        (* Charges land under ~label at the caller's phase scope: the runner is
       the public API and must not impose one (fingerprint-stable). *)
        (* lbcc-lint: allow typ-phase-flow *)
        Reliable.run ?accountant ?faults ?patience ~label:"bfs" ~model ~graph
          ~size_bits:(fun d -> Bits.int_bits d)
          ~init ~step
          ~max_supersteps:(100 * max_supersteps n)
          ()
      in
      result_of r.Reliable.states ~rounds:r.Reliable.stats.Engine.rounds
        ~supersteps:r.Reliable.virtual_supersteps
        ~converged:r.Reliable.stats.Engine.converged
