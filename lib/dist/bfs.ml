open Lbcc_util
module Model = Lbcc_net.Model
module Tier = Lbcc_net.Tier
module Inbox = Lbcc_net.Engine.Inbox
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
  byz : Lbcc_net.Byzantine.Diag.t option;
}

(* The vertex program, run under every delivery tier. *)
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
      if Inbox.length inbox = 0 then (st, None, true)
      else begin
        let sender = Inbox.sender inbox 0 and d = Inbox.message inbox 0 in
        ({ sdist = d + 1; sparent = sender; announced = true }, Some (d + 1), true)
      end
    end
  in
  (init, step)

(* The wave crosses the graph in <= n-1 supersteps and every vertex
   announces once more before halting, so 2(n+1) leaves slack; a run that
   exhausts the cap reports [converged = false]. *)
let max_supersteps n = 2 * (n + 1)

(* Payload poison for tampered deliveries: flip low distance bits, always
   changing the value.  Tampering is only visible when a runner passes this
   to the engine — see the determinism contract in {!Lbcc_net.Fault}. *)
let tamper ~salt d = d lxor (1 lor (salt land 0x7))

let run ?accountant ?faults ?patience ?(reliability = Model.None) ~model ~graph
    ~source () =
  let n = Graph.n graph in
  let init, step = program ~n ~source in
  let { Tier.states; stats; supersteps; byz } =
    Tier.run ?accountant ?faults ?patience ~reliability ~tamper ~label:"bfs"
      ~model ~graph
      ~size_bits:(fun d -> Bits.int_bits d)
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
