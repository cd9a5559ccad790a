(** A reusable multicore worker pool over OCaml 5 domains.

    The pool keeps [size - 1] worker domains parked on condition variables;
    the calling domain is the remaining lane.  Work is split on a chunk grid
    whose boundaries depend only on the problem size (never on the pool
    size) — so every pool size, including 1, computes bit-identical results
    as long as the per-chunk work touches disjoint state.

    A pool of size 1 never spawns a domain and runs everything inline.
    Nested parallel calls on a busy pool degrade to inline execution rather
    than deadlocking, so library code can use the shared {!default} pool
    without coordinating with its callers.  Exceptions raised by chunk work
    are re-raised on the calling domain (remaining chunks are abandoned). *)

type t

val size : t -> int
(** Total lanes, including the calling domain.  [size t = 1] means fully
    sequential. *)

val default : unit -> t
(** The process-wide shared pool, created on first use and joined in an
    [at_exit] hook.  It is sized from the [LBCC_DOMAINS] environment
    variable when set (clamped to [\[1, 128\]]), else
    [Domain.recommended_domain_count ()]. *)

val set_default_domains : int -> unit
(** Replace the default pool with one of exactly [d] lanes (shutting the old
    one down).  Used by the determinism test suite and the [--domains] CLI
    flag to replay runs at several lane counts.
    @raise Invalid_argument when [d < 1]. *)

val parallel_for : t -> ?chunk:int -> n:int -> (int -> int -> unit) -> unit
(** [parallel_for t ~n f] calls [f lo hi] over subranges covering [0, n).
    Ranges on the parallel path are chunk-grid aligned ([?chunk] elements
    each, default [max 1 (ceil (n / 64))]); the sequential fallback calls
    [f 0 n] once.  [f] must write disjoint state per index — under that
    contract results are identical for every pool size and schedule. *)
