(** Weighted undirected graphs.

    Vertices are [0 .. n-1]; edges carry positive real weights and have
    stable integer identifiers [0 .. m-1].  Parallel edges and reweighting
    are allowed (sparsifiers reweight); self-loops are rejected. *)

type edge = { u : int; v : int; w : float }

type t

val create : n:int -> edge list -> t
(** @raise Invalid_argument on out-of-range endpoints, self-loops, or
    non-positive weights. *)

val of_edge_array : n:int -> edge array -> t

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val edges : t -> edge array
(** The edge array, indexed by edge identifier.  Do not mutate. *)

val edge : t -> int -> edge

val neighbors : t -> int -> (int * int) list
(** [neighbors g v] lists [(u, edge_id)] pairs for edges incident to [v]. *)

val total_weight : t -> float
val max_weight : t -> float

val other_endpoint : edge -> int -> int
(** [other_endpoint e v] is the endpoint of [e] that is not [v].
    @raise Invalid_argument if [v] is not an endpoint. *)

val map_weights : (int -> edge -> float) -> t -> t
(** [map_weights f g] replaces the weight of edge [id] by [f id (edge g id)]. *)

val sub_edges : t -> int list -> t
(** Subgraph on the same vertex set keeping only the listed edge ids
    (re-indexed). *)

val union : t -> t -> t
(** Disjoint union of edge sets over the same vertex set. *)

val coalesce : t -> t
(** Merge parallel edges by summing their weights — spectrally equivalent
    (Laplacians add) and required by consumers that assume simple graphs
    (the spanner algorithm). *)

val laplacian : t -> Lbcc_linalg.Sparse.t
(** The [n x n] graph Laplacian [L = B^T W B]. *)

val laplacian_dense : t -> Lbcc_linalg.Dense.t

val apply_laplacian : t -> Lbcc_linalg.Vec.t -> Lbcc_linalg.Vec.t
(** Matrix-free [L x] in [O(m)]. *)

val apply_laplacian_into : t -> Lbcc_linalg.Vec.t -> Lbcc_linalg.Vec.t -> unit
(** [apply_laplacian_into g x y] writes [L x] into [y] without allocating.
    [y] must not alias [x]. *)

val components : t -> int array * int
(** [(comp, count)] where [comp.(v)] is the component index of [v]. *)

val is_connected : t -> bool

(** {2 Batched mutation}

    A {!Delta.t} is a batch of edge inserts, deletes, and reweights against
    one graph version, with every delete/reweight naming a {e pre-delta}
    edge id.  Deltas carry a canonical normal form (inserts canonically
    oriented and sorted, delete/reweight ids sorted and deduplicated with
    last-op-wins semantics), so equal mutations compare equal and every
    consumer — fingerprint patching, incremental re-sparsification, the
    serve-daemon [update] opcode — sees the same bytes for the same edit. *)

module Delta : sig
  type op =
    | Insert of edge  (** add a (possibly parallel) edge *)
    | Delete of int  (** remove the edge with this pre-delta id *)
    | Reweight of int * float  (** replace the weight of a pre-delta id *)

  type t

  val of_ops : op list -> t
  (** Normalize an op sequence.  Ops are interpreted left to right against a
      single graph version: for the same edge id the last op wins (a
      [Reweight] followed by a [Delete] is the [Delete]).
      @raise Invalid_argument on self-loop inserts, non-positive or
      non-finite weights, or negative edge ids. *)

  val inserts : t -> edge array
  val deletes : t -> int array
  val reweights : t -> (int * float) array

  val size : t -> int
  (** Total op count after normalization. *)

  val is_empty : t -> bool

  val max_id : t -> int
  (** Largest pre-delta edge id referenced, or [-1] if none. *)

end

val apply : t -> Delta.t -> t
(** Apply a delta: surviving edges keep their relative order and are
    re-indexed compactly, inserted edges follow in canonical order, and the
    vertex set is unchanged.
    @raise Invalid_argument if the delta references an edge id [>= m] or an
    insert endpoint [>= n]. *)

val apply_mapped : t -> Delta.t -> t * int array
(** Like {!apply}, also returning the edge-id remap: entry [id] is the
    post-delta id of pre-delta edge [id], or [-1] if it was deleted. *)

val delta_touched : t -> Delta.t -> bool array
(** Per-vertex flag: incident to an inserted, deleted, or reweighted edge —
    the neighborhoods incremental re-sparsification must revisit. *)
