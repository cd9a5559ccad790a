(** Generic synchronous broadcast engine.

    Runs a per-vertex step function in lockstep supersteps: in each superstep
    every live vertex reads its inbox (the broadcasts its in-neighbors made in
    the previous superstep), updates its local state, and optionally
    broadcasts one message.  The engine enforces the broadcast discipline
    (one outgoing message per vertex per superstep, delivered identically to
    all neighbors) and charges the accountant [ceil(max_bits/B)] rounds per
    superstep, recording the per-superstep maximum message bits alongside.
    With a [?tracer] the whole run executes inside a span named [label] that
    receives the run's rounds, aggregate sent bits, supersteps and message
    count.

    Delivery is lossless and crash-free unless a {!Fault.t} is supplied: then
    each (sender, receiver) delivery may be dropped or duplicated and
    vertices may crash-stop mid-run, all reproducibly from the fault seed.
    Termination is reported honestly: [stats.converged] says whether every
    vertex halted (or crashed) on its own, and [?on_timeout:`Raise] turns the
    superstep cap into a {!Timeout} instead of a silent truncation.

    The heavier algorithms of this repository (spanner, sparsifier) use
    bespoke superstep drivers for clarity; this engine backs the simple
    vertex programs (BFS baseline, leader election, aggregation) and the unit
    tests of the charging rules.

    {2 Message path}

    {!run} keeps in-flight messages in two reusable ['msg option] arrays —
    the broadcasts being delivered and the broadcasts being collected —
    swapped each superstep, and delivers them through a counting-sort CSR
    delivery plan ({!Plan}) instead of per-vertex adjacency lists
    (DESIGN.md §10).  The steady-state message path allocates only each
    broadcast's [Some] cell and the inbox lists handed to the step
    function.

    {2 Parallel execution}

    The per-vertex step phase runs on a {!Lbcc_util.Pool} (the shared
    default pool unless [?pool] is given), chunked over vertex ranges.
    Results are bit-identical at every pool size: each vertex assembles its
    own inbox from the previous superstep's message slots in ascending
    sender order (reproducing the historical push-delivery order exactly),
    fault coins are flipped in a sequential phase that replays the
    historical sender-major query sequence, and a chunk writes only the
    state, message slot and live flag of its own vertices.  Step functions
    must therefore be pure per vertex — they may freely read shared
    immutable data but must not mutate state shared across vertices. *)

type 'msg inbox = (int * 'msg) list
(** [(sender, message)] pairs, ascending by sender.  Under a fault model a
    duplicated delivery appears as two adjacent pairs from the same sender. *)

type ('state, 'msg) step =
  round:int -> vertex:int -> 'state -> 'msg inbox -> 'state * 'msg option * bool
(** Returns the new state, an optional broadcast, and whether the vertex is
    still live.  A halted vertex neither sends nor steps again (its last
    state is kept); the run ends when all vertices halt or [max_supersteps]
    is reached. *)

type stats = {
  supersteps : int;
  rounds : int;
  messages_sent : int;
  total_bits : int;
  converged : bool;
      (** [true] iff every vertex halted or crashed before the superstep
          cap; [false] means the run was truncated with vertices still
          live — the states are partial. *)
}

exception
  Timeout of { label : string; supersteps : int; rounds : int; phase : string }
(** Raised instead of returning truncated state when [?on_timeout:`Raise]
    is selected and [max_supersteps] is exhausted.  [rounds] is the round
    count charged up to the cap and [phase] the accountant's open-phase
    path at that moment ([""] without an accountant or open phase), so a
    timeout pinpoints where in the pipeline the budget died. *)

type on_timeout = [ `Truncate | `Raise ]

val run :
  ?pool:Lbcc_util.Pool.t ->
  ?accountant:Rounds.t ->
  ?tracer:Lbcc_obs.Trace.t ->
  ?label:string ->
  ?max_supersteps:int ->
  ?on_timeout:on_timeout ->
  ?faults:Fault.t ->
  ?tamper:(salt:int -> 'msg -> 'msg) ->
  model:Model.t ->
  graph:Lbcc_graph.Graph.t ->
  size_bits:('msg -> int) ->
  init:(int -> 'state) ->
  step:('state, 'msg) step ->
  unit ->
  'state array * stats
(** Runs the protocol over the communication topology selected by [model]
    ([Input_graph]: neighbors of [graph]; [Clique]: everyone).  A crashed
    vertex stops stepping and sending from its crash superstep on; its last
    state is kept.

    [?tamper] gives the fault plan's corruption/equivocation verdicts
    (see {!Fault.tamper}) a concrete payload transform: when a delivery is
    tampered the receiver sees [tamper ~salt msg] instead of [msg].  It
    must be pure (it runs inside the parallel gather) and deterministic in
    [salt].  The default is the identity — a protocol that opts out of
    supplying a transform is immune to payload tampering, not silently
    corrupted.
    @raise Timeout when the cap is hit under [?on_timeout:`Raise]. *)
