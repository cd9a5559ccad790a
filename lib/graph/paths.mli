(** Shortest paths on weighted graphs.

    Exact distances back the spanner stretch checks (Lemma 3.1) and the
    combinatorial flow baselines. *)

val dijkstra : Graph.t -> src:int -> float array
(** Single-source distances with nonnegative weights; [infinity] where
    unreachable. *)

val bfs_hops : Graph.t -> src:int -> int array
(** Hop distances ignoring weights; [max_int] where unreachable. *)

val stretch : Graph.t -> Graph.t -> float
(** [stretch g h] is the maximum over vertex pairs [u, v] connected in [g] of
    [d_h(u,v) / d_g(u,v)]; [infinity] if [h] disconnects such a pair.
    [h] must be a subgraph of [g] on the same vertex set (not checked). *)

val bellman_ford :
  n:int -> arcs:(int * int * float) list -> src:int -> float array option
(** Single-source distances on a general directed arc list (negative
    weights allowed); [None] if a negative cycle is reachable from [src].
    Backs the flow baselines' optimality certificates. *)

val diameter : Graph.t -> float
(** Largest finite pairwise distance ([0.] for singletons). *)
