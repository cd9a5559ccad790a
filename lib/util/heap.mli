(** Minimal binary min-heap keyed by floats, for Dijkstra-style algorithms.

    Stale-entry semantics: [push] may insert duplicates for one element;
    callers dedupe on pop (standard "lazy decrease-key"). *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> float -> 'a -> unit
val pop_min : 'a t -> (float * 'a) option
(** Removes and returns the minimum-key entry, or [None] when empty. *)
