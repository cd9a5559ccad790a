(** Deterministic pseudo-random number generation.

    All randomized algorithms in this repository take an explicit generator so
    that every experiment is reproducible from a single integer seed.  The
    implementation is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): fast,
    statistically solid for simulation purposes, and trivially splittable,
    which we use to hand independent streams to independent simulated
    vertices. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    (for simulation purposes) independent of the remainder of [t]'s. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Requires [bound > 0]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val first_bernoulli : int -> float -> bool
(** [first_bernoulli seed p] is [bernoulli (create seed) p] without
    allocating: a coin from the first draw of a fresh stream, for callers
    that hash coordinates into a one-shot seed. *)

val second_int : int -> int
(** [second_int seed] is [Int64.to_int (next_int64 g) land max_int] for
    the second draw of [g = create seed] (the first being the coin of
    {!first_bernoulli}), without allocating. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
