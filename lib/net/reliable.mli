(** Reliable broadcast over a lossy engine.

    [run] wraps any broadcast vertex program (an {!Engine.step}) in an
    ack/retransmit protocol and executes it over an engine with faults
    injected, delivering the inner protocol {b exactly-once, in-order}
    semantics: the sequence of virtual supersteps the inner program
    observes is identical to what the lossless engine would have fed it,
    so (absent crashes) the wrapped run computes the same states as
    {!Engine.run} without faults.

    Mechanics: each vertex stamps its inner broadcast (possibly the
    explicit "no message" marker) with a virtual round number and
    retransmits it every real superstep, piggybacking cumulative acks —
    the set of senders whose current-round payload it has received.  A
    vertex advances to virtual round [k+1] only when it holds round-[k]
    payloads from all relevant neighbors and all of them have acknowledged
    its own round-[k] broadcast; duplicated deliveries are filtered by the
    round stamp.  The ack barrier bounds the round skew between neighbors
    by one, so a single look-ahead buffer suffices.

    Layout: a vertex keeps its per-neighbour state — the payloads of the
    current and the next virtual round, held/acked/halted/suspected flags
    and the last real superstep it heard from the neighbour — in arrays
    indexed by the neighbour's position in its ascending neighbour list
    (the vertex id on the clique).  The engine's inbox ascends by sender,
    so one cursor maps each delivery to its position.  A packet's acks are
    an ascending [int array] of vertex ids, which a receiver
    binary-searches for its own id, and a vertex rebuilds its packet only
    when the contents change.  Nothing in the superstep loop hashes or
    sorts.

    Crash tolerance: a neighbor not heard from for [patience] consecutive
    real supersteps is suspected and dropped from every barrier, after
    which the inner program simply stops hearing from it — exactly how the
    honest engine presents a halted vertex.  With drop probability [p],
    a live vertex is falsely suspected with probability [p^patience] per
    wait, so the default [patience] keeps recovery correct w.h.p.

    Cost accounting: the real execution is charged to the accountant under
    two labels — [label] receives one charge per completed virtual
    superstep (what the lossless protocol pays), and [label ^ "/retransmit"]
    receives the remainder: retransmissions, ack piggybacking, and
    round-stamp overhead.  The aggregate bits the real execution broadcast
    are recorded under the protocol label (the per-superstep maxima are not
    recoverable after the fact). *)

module Graph = Lbcc_graph.Graph

type 'state result = {
  states : 'state array;  (** final inner states *)
  stats : Engine.stats;  (** real execution statistics *)
  virtual_supersteps : int;
      (** inner supersteps completed (what the lossless run counts) *)
}

val settle :
  ?accountant:Rounds.t ->
  label:string ->
  overhead_label:string ->
  virtual_supersteps:int ->
  Engine.stats ->
  int
(** The charge split both wrapped delivery tiers ({!run},
    {!Byzantine.run}) apply once their inner engine run is over: it charges
    [min virtual_supersteps stats.rounds] rounds and all of
    [stats.total_bits] under [label], and the remaining rounds under
    [overhead_label].  Returns the overhead rounds. *)

val run :
  ?accountant:Rounds.t ->
  ?patience:int ->
  ?faults:Fault.t ->
  label:string ->
  max_supersteps:int ->
  model:Model.t ->
  graph:Graph.t ->
  size_bits:('msg -> int) ->
  init:(int -> 'state) ->
  step:('state, 'msg) Engine.step ->
  unit ->
  'state result
(** [patience] defaults to 30 real supersteps; [max_supersteps] caps the
    {b real} supersteps, and a run that hits it returns truncated with
    [stats.converged = false].
    @raise Invalid_argument when [patience < 1]. *)
