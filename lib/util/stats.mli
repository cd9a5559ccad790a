(** Small descriptive-statistics helpers used by the experiment harness. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

val mean : float array -> float
(** Arithmetic mean; [nan] on the empty array. *)

val stddev : float array -> float
(** Square root of the unbiased sample variance; [0.] for arrays of length
    [<= 1]. *)

val summarize : float array -> summary
(** Full summary; the median interpolates linearly between the two middle
    order statistics of an even count.  Does not mutate its argument;
    raises [Invalid_argument] on the empty array. *)

val pp_summary : Format.formatter -> summary -> unit

val linear_fit : float array -> float array -> float * float
(** [linear_fit xs ys] returns [(slope, intercept)] of the least-squares line.
    Used for estimating scaling exponents from log-log data. *)

val scaling_exponent : float array -> float array -> float
(** [scaling_exponent ns ys] fits [y ~ c * n^a] by regressing
    [log y] on [log n] and returns [a].  All inputs must be positive. *)
