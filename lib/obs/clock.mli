(** The repository's single wall-clock authority.

    The [det-wall-clock] lint rule (DESIGN.md §8) bans clock reads outside
    [lib/obs]: a protocol or scheduler that branches on the time of day is
    not replayable.  Observation, however, legitimately needs timestamps —
    service-latency histograms, span timing — so this module exposes the
    clock for {e measurement only}.  The contract for callers: clock values
    may flow into {!Metrics} and {!Trace}, never into control flow that
    decides what a run computes. *)

val now_s : unit -> float
(** Wall-clock seconds since the epoch ([Unix.gettimeofday]).  Suitable for
    latency deltas and span timing (it is {!Trace.create}'s default clock);
    not monotonic under clock steps, which is acceptable for
    observations. *)
