(** Patchable structural graph fingerprints for the prepared-handle cache.

    Two graphs with the same vertex count and the same edge multiset (same
    endpoint pairs, same IEEE weight bits, any order and orientation) get
    the same fingerprint; any mutation — reweighting an edge, adding or
    dropping one — changes it with overwhelming probability.  Each edge
    contributes an independent FNV-1a term and the graph sums them with
    wrapping 64-bit addition, so the fingerprint is a commutative group
    element: a {!Graph.Delta} translates to a {!delta_fp} in [O(|delta|)]
    and {!apply} patches a live fingerprint without rehashing the graph —
    the primitive that lets the serve daemon re-key hot prepared handles in
    place.  Deterministic across runs and collision-safe at cache scale (a
    handful of live graphs, not adversarial input). *)

module Graph = Lbcc_graph.Graph

type t
(** Fingerprint state: vertex count, edge count, and the commutative
    edge-term sum. *)

val graph : Graph.t -> t
(** Fingerprint the full edge multiset, [O(m)]. *)

val to_hex : t -> string
(** 16-digit lowercase hex of {!hash}, for cache keys and log lines. *)

val equal : t -> t -> bool

type delta_fp
(** The fingerprint-space image of one {!Graph.Delta}. *)

val delta : Graph.t -> Graph.Delta.t -> delta_fp
(** [delta g d] hashes only the edges [d] names, [O(|d|)].  [g] must be the
    pre-delta graph the delta's edge ids refer to.
    @raise Invalid_argument if [d] references an edge id [>= m]. *)

val apply : t -> delta_fp -> t
(** Patch: [apply (graph g) (delta g d) = graph (Graph.apply g d)], in
    O(1).  The algebra is exact, not approximate — the QCheck suite pins
    this identity under random delta streams. *)
