(** Plain-text graph writer (what [lbcc gen] saves).

    The format is a DIMACS-flavoured line protocol:

    {v
    c comment
    p graph <n> <m>
    e <u> <v> <w>
    v}

    Vertices are 0-based; weights are printed with 17 significant digits,
    so they read back bit-exactly. *)

val graph_to_string : Graph.t -> string

val save_graph : string -> Graph.t -> unit
(** Write to a file path. *)
