(** Deterministic views of [Hashtbl].

    [Hashtbl.iter]/[Hashtbl.fold] enumerate in hash-bucket order, which is
    not a stable public contract.  Protocol code must not observe it
    (lbcc-lint rule [det-unordered-hashtbl]); these helpers impose a total
    key order instead.  O(n log n) over the bindings — meant for result
    assembly and diagnostics, not the superstep hot loop (only
    [Byzantine]'s echo rounds and the spanner's driver still sort
    there). *)

val sorted_bindings :
  compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** All bindings, sorted by key under [compare].  With duplicate keys
    (via [Hashtbl.add]) the relative order of equal keys is unspecified. *)

val iter_sorted :
  compare:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [iter_sorted ~compare f tbl] applies [f] to each binding in ascending
    key order. *)
