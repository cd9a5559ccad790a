(** Plain-text serialization for graphs and DOT export.

    The format is a DIMACS-flavoured line protocol:

    {v
    c comment
    p graph <n> <m>
    e <u> <v> <w>
    v}

    Vertices are 0-based; weights are decimal.  Parsing is strict: malformed
    lines raise with the offending line number. *)

val graph_to_string : Graph.t -> string

val graph_of_string : string -> Graph.t
(** @raise Failure on malformed input, [Invalid_argument] on an invalid
    graph (out-of-range endpoint, self-loop, non-positive weight). *)

val save_graph : string -> Graph.t -> unit
(** Write to a file path. *)

val load_graph : string -> Graph.t
(** Read a file written by {!save_graph} (what [lbcc gen] writes). *)

val to_dot : ?name:string -> Graph.t -> string
(** Graphviz rendering (undirected, weight-labelled). *)
