(** The counting-sort delivery plan of the engine (DESIGN.md §10): the
    receiver-major CSR over the directed delivery pairs [(src, dst)] of an
    undirected graph, built once per {!Engine.run} on [Input_graph]
    topologies. *)

type t = { off : int array; srcs : int array }
(** Vertex [v] hears senders [srcs.(off.(v)) .. srcs.(off.(v+1)-1)],
    ascending, parallel edges adjacent. *)

val plan : Lbcc_graph.Graph.t -> t
(** Two counting passes over the edge array — O(n + m), no intermediate
    per-vertex lists, no comparison sort.  Each segment lists a receiver's
    in-neighbors in ascending order, the inbox order {!Engine.run}
    guarantees on [Input_graph] topologies. *)
