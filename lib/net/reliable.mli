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
    recoverable after the fact).  With a [?tracer] the run executes inside
    a span named [label] carrying the real execution's counters plus
    [virtual_supersteps], [protocol_rounds], [retransmit_rounds] and
    [suspected] attributes; the tracer is {e not} passed to the inner
    engine, so the span's counters are not double-counted. *)

module Graph = Lbcc_graph.Graph

type 'state result = {
  states : 'state array;  (** final inner states *)
  stats : Engine.stats;  (** real execution statistics *)
  virtual_supersteps : int;
      (** inner supersteps completed (what the lossless run counts) *)
  protocol_rounds : int;  (** rounds charged under [label] *)
  retransmit_rounds : int;
      (** rounds charged under [label ^ "/retransmit"] *)
  suspected : int list;  (** vertices suspected crashed by some neighbor *)
}

val retransmit_label : string -> string
(** The accountant label overhead is charged under. *)

val run :
  ?accountant:Rounds.t ->
  ?tracer:Lbcc_obs.Trace.t ->
  ?label:string ->
  ?max_supersteps:int ->
  ?on_timeout:Engine.on_timeout ->
  ?patience:int ->
  ?faults:Fault.t ->
  model:Model.t ->
  graph:Graph.t ->
  size_bits:('msg -> int) ->
  init:(int -> 'state) ->
  step:('state, 'msg) Engine.step ->
  unit ->
  'state result
(** [patience] defaults to 30 real supersteps; [max_supersteps] (the cap on
    {b real} supersteps) defaults to 100_000.
    @raise Engine.Timeout under [?on_timeout:`Raise] when the cap is hit. *)
