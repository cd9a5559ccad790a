(** Metrics registry: counters, gauges, log-scale histograms.

    A registry is a flat namespace of metrics keyed by label ("sparsify.runs",
    "solve.iterations", ...).  Counters accumulate integers, gauges hold the
    last value set, histograms bucket observations at powers of two (the
    quantities measured here — rounds, iterations, bits — span orders of
    magnitude, where linear buckets are useless).

    As with {!Trace}, every mutator takes the registry as an [option] so
    instrumented code can thread an optional argument through at zero cost
    when observability is off. *)

type t

type histogram_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) list;
      (** [(upper_bound, count)] for non-empty buckets, ascending; an
          observation [v] lands in the smallest bucket with [v <= 2^e] *)
}

val create : unit -> t

val inc : t option -> ?by:int -> string -> unit
(** Bump a counter (created at 0 on first use).  [by] defaults to 1 and must
    be [>= 0]. *)

val set_gauge : t option -> string -> float -> unit

val observe : t option -> string -> float -> unit
(** Add an observation to a histogram.  Non-positive values land in a
    dedicated underflow bucket (bound [0.]). *)

val counter : t -> string -> int
(** 0 when the counter was never bumped. *)

val gauge : t -> string -> float option

val histogram : t -> string -> histogram_summary option

val quantile : histogram_summary -> float -> float
(** [quantile s q] estimates the [q]-quantile ([0 <= q <= 1]) of the
    observations behind [s] by locating rank [q * count] in the cumulative
    bucket counts and interpolating linearly inside the winning power-of-two
    bucket, clamped to the exact [\[min, max\]] — so SLO summaries (p50 /
    p90 / p99) report values inside the observed range rather than bucket
    edges.  [q = 0.] is exactly [s.min] and [q = 1.] exactly [s.max].
    The estimate's error is bounded by the winning bucket's width.
    @raise Invalid_argument on an empty summary or [q] outside [\[0, 1\]]. *)

(** {!quantile} on a named histogram; [None] when it does not exist. *)

val to_json : t -> Json.t
(** [{counters: {...}, gauges: {...}, histograms: {...}}], each sorted by
    name. *)
