(** Delivery-tier dispatch: the one place that chooses how a broadcast
    vertex program is delivered.

    {!run} executes an {!Engine.step} program under the tier named by
    [reliability]:

    - [None]: {!Engine.run} directly, capped at [max_supersteps], with
      [~tamper].  Faults hit the program: drops are lost, tampered
      payloads are believed.
    - [Crash_safe]: {!Reliable.run}, capped at [100 * max_supersteps],
      without [~tamper].  Ack/retransmit recovery from drops, duplicates
      and crash-stop vertices; overhead under [label ^ "/retransmit"].
    - [Byzantine_safe]: {!Byzantine.run}, capped at [100 * max_supersteps],
      with [~tamper].  Echo quorums outvote [f < n/3] equivocating
      vertices; overhead under [label ^ "/byz-echo"].

    Every tier charges the accountant under [label] at the caller's phase
    scope.  The wrapped tiers add their recovery overhead under their own
    label (DESIGN.md §9). *)

type 'state result = {
  states : 'state array;  (** final (inner) vertex states *)
  stats : Engine.stats;  (** statistics of the real engine execution *)
  supersteps : int;
      (** virtual supersteps: what the lossless program counts.  Equal to
          [stats.supersteps] on the [None] tier. *)
  byz : Byzantine.Diag.t option;
      (** quorum diagnostics, [Some] exactly on the [Byzantine_safe] tier *)
}

val run :
  ?accountant:Rounds.t ->
  ?faults:Fault.t ->
  ?patience:int ->
  reliability:Model.reliability ->
  tamper:(salt:int -> 'msg -> 'msg) ->
  label:string ->
  model:Model.t ->
  graph:Lbcc_graph.Graph.t ->
  size_bits:('msg -> int) ->
  init:(int -> 'state) ->
  step:('state, 'msg) Engine.step ->
  max_supersteps:int ->
  unit ->
  'state result
(** [max_supersteps] is the lossless program's cap; the wrapped tiers
    scale it as the table says.  Only [Crash_safe] reads [patience] (see
    {!Reliable.run}), but every tier rejects [patience < 1].
    @raise Invalid_argument on [patience < 1], or on [Byzantine_safe] with
    an [Input_graph] model (echo quorums need the clique). *)
