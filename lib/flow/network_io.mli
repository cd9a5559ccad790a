(** Plain-text serialization for flow networks.

    DIMACS-flavoured line protocol:

    {v
    c comment
    p mcmf <n> <m> <source> <sink>
    a <src> <dst> <capacity> <cost>
    v}

    Vertices are 0-based. *)

val to_string : Network.t -> string

val of_string : string -> Network.t
(** @raise Failure on malformed input. *)

val save : string -> Network.t -> unit
val load : string -> Network.t

val to_dot : ?name:string -> ?flow:float array -> Network.t -> string
(** Graphviz rendering; when [flow] is given arcs are labelled
    [flow/capacity @ cost] and loaded arcs are drawn bold. *)
