(** Generic synchronous broadcast engine.

    Runs a per-vertex step function in lockstep supersteps: in each superstep
    every live vertex reads its inbox (the broadcasts its in-neighbors made in
    the previous superstep), updates its local state, and optionally
    broadcasts one message.  The engine enforces the broadcast discipline
    (one outgoing message per vertex per superstep, delivered identically to
    all neighbors) and charges the accountant [ceil(max_bits/B)] rounds per
    superstep, recording the per-superstep maximum message bits alongside.

    Delivery is lossless and crash-free unless a {!Fault.t} is supplied: then
    each (sender, receiver) delivery may be dropped or duplicated and
    vertices may crash-stop mid-run, all reproducibly from the fault seed.
    Termination is reported honestly: [stats.converged] says whether every
    vertex halted (or crashed) on its own before the superstep cap.

    Every dist protocol (BFS, SSSP, leader election) runs on this engine
    through {!Tier.run}, under each delivery tier.  The spanner, and the
    sparsifier built from it, keep their own stage driver, which charges
    the accountant directly and charges nothing for a stage in which no
    vertex sends; DESIGN.md §10 says why they do not run here.

    {2 Message path}

    {!run} keeps in-flight messages in two reusable ['msg option] arrays —
    the broadcasts being delivered and the broadcasts being collected —
    swapped each superstep.  When a superstep ends, the ascending ids of
    the occupied slots are recorded in a preallocated array: a clique
    receiver walks only those senders, and an [Input_graph] receiver walks
    its segment of the counting-sort CSR delivery plan ({!Plan})
    (DESIGN.md §10).  A superstep therefore costs O(n + deliveries), not
    O(n{^ 2}) on the clique.  Each receiver's deliveries are copied into
    its chunk's reusable inbox buffer, so the message path allocates only
    each broadcast's [Some] cell (a buffer grows until it has held the
    largest inbox, then never again).  Under faults, the non-default
    verdicts are counting-sorted by receiver once per superstep and merged
    into each receiver's sender walk.

    {2 Parallel execution}

    The per-vertex step phase runs on the shared default
    {!Lbcc_util.Pool}, chunked over vertex ranges.
    Results are bit-identical at every pool size: each vertex assembles its
    own inbox from the previous superstep's message slots in ascending
    sender order (reproducing the historical push-delivery order exactly),
    fault coins are flipped in a sequential phase that replays the
    historical sender-major query sequence, and a chunk writes only the
    state, message slot and live flag of its own vertices, and its own
    inbox buffer.  Step functions
    must therefore be pure per vertex — they may freely read shared
    immutable data but must not mutate state shared across vertices. *)

(** The deliveries a vertex reads in one superstep: [(sender, message)]
    pairs, ascending by sender.  Under a fault model a duplicated delivery
    appears as two adjacent pairs from the same sender, and a tampered one
    carries the tampered payload.

    An inbox is a read-only view of scratch that {!run} reuses for the
    next vertex: it is valid only during the step call it is passed to.
    A step must not keep it, or call {!Inbox.clear}/{!Inbox.push} on it;
    copy out what must outlive the call. *)
module Inbox : sig
  type 'msg t

  val length : 'msg t -> int

  val sender : 'msg t -> int -> int
  (** [sender t i] is the [i]-th sender, [0 <= i < length t].
      @raise Invalid_argument out of range. *)

  val message : 'msg t -> int -> 'msg
  (** [message t i] is the [i]-th message.
      @raise Invalid_argument out of range. *)

  val iter : (int -> 'msg -> unit) -> 'msg t -> unit
  (** [iter f t] calls [f sender message] in inbox order. *)

  val fold : ('a -> int -> 'msg -> 'a) -> 'a -> 'msg t -> 'a
  (** [fold f acc t] folds [f acc sender message] in inbox order. *)

  (** {3 Building an inbox}

      For delivery tiers that replay an inner protocol over the engine
      ({!Reliable}, {!Byzantine}): they keep one buffer per vertex and
      refill it before each inner step, in ascending sender order. *)

  val create : unit -> 'msg t
  (** An empty buffer; it grows on demand and keeps its capacity. *)

  val clear : 'msg t -> unit

  val push : 'msg t -> int -> 'msg -> unit
  (** [push t sender message] appends one delivery. *)
end

type 'msg inbox = 'msg Inbox.t

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

val run :
  ?accountant:Rounds.t ->
  ?label:string ->
  ?max_supersteps:int ->
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
    corrupted. *)
