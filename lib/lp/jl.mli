(** Seed-driven Johnson–Lindenstrauss projections (Lemma 4.5's
    communication pattern).

    Achlioptas-style dense random-sign projections need one fresh coin per
    matrix entry — infeasible under the broadcast constraint, since an edge's
    coin cannot reach the other endpoint.  Kane–Nelson [KN14] show a family
    seeded by [O(log(1/delta) log m)] uniform bits suffices; operationally,
    the leader broadcasts a short seed and every vertex expands the same
    projection locally.  We realize exactly that: a SplitMix64-keyed family
    of rows with entries [±1/sqrt k], derived deterministically from
    [(seed, row, column)]. *)

module Vec = Lbcc_linalg.Vec

val rows_for : m:int -> eta:float -> int
(** The projection dimension [k = ceil(c log(m) / eta^2)]. *)

val seed_bits : m:int -> int
(** Number of random bits the leader broadcasts, [Theta(log^2 m)]. *)

val row : seed:int -> k:int -> j:int -> m:int -> Vec.t
(** [row ~seed ~k ~j ~m] is [Q^(j)], the [j]-th row of the seeded projection
    [Q ∈ R^{k×m}], with entries [±1/sqrt k].  Pure: any party holding the
    seed reconstructs the same row. *)
