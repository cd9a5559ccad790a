(** Admission control + fingerprint-coalescing scheduler (pure bookkeeping).

    The daemon's performance core: requests are admitted into a bounded
    queue (beyond [max_queue] the caller must reject with [Overloaded] —
    the daemon never buffers unboundedly), binned by an opaque coalescing
    key (graph fingerprint + solver parameters), and dispatched as batches
    that the daemon feeds to {!Lbcc_service.Prepared.solve_many}.

    {b Determinism.}  The scheduler reads no clock and no randomness; its
    batching window is measured in {e completed batches}, the monotone
    counter its own dispatches produce.  Every decision is therefore a pure
    function of the event trace (the [admit]/[dispatch] interleaving): the
    same trace yields the same batch compositions in the same order, at
    every worker-pool size (pinned by [test_serve]). *)

type config = {
  max_queue : int;
      (** admission bound: requests pending at once; at the bound new
          arrivals are rejected, never queued *)
  max_batch : int;
      (** coalescing cap per dispatched batch; [1] is serial dispatch,
          every batch carrying exactly one request (the SERVE bench's
          baseline mode) *)
  window : int;
      (** latency guard: a request that has waited this many completed
          batches forces its bin to dispatch next, so coalescing never
          starves a lonely fingerprint.  [0] disables waiting entirely. *)
}

val default_config : config
(** [{ max_queue = 256; max_batch = 16; window = 4 }] *)

type 'a t

val create : ?metrics:Lbcc_obs.Metrics.t -> config -> 'a t
(** With [metrics], the scheduler maintains ["serve.admitted"] /
    ["serve.rejected"] counters, the ["serve.queue_depth"] gauge and the
    ["serve.batch_occupancy"] / ["serve.queue_wait_batches"] histograms.
    @raise Invalid_argument on [max_queue < 1], [max_batch < 1] or a
    negative [window]. *)

val admit : 'a t -> key:string -> 'a -> bool
(** Enqueue under the coalescing [key]; [false] means the queue is at
    [max_queue] and the request was rejected ({e admission control}: the
    caller answers [Overloaded] immediately). *)

type 'a batch = {
  key : string;
  items : 'a list;  (** admission order *)
  occupancy : int;  (** [List.length items] *)
}

val dispatch : ?force:bool -> 'a t -> 'a batch option
(** Remove and return the next batch, or [None] when no bin is ripe.
    Priority: a bin whose head has waited [>= window] completed batches,
    else a bin holding [>= max_batch] requests, else — under [force]
    (drain, idle poll) — any bin; ties break toward the oldest head
    request.  Completing the dispatch increments the batch counter that
    ages every other waiting request. *)

val pending : 'a t -> int
(** Admitted requests not yet dispatched. *)

val batches : 'a t -> int
(** Completed batches — the scheduler's clock. *)

val admitted : 'a t -> int
val rejected : 'a t -> int
