(* Deterministic views of Hashtbl.

   [Hashtbl.iter]/[Hashtbl.fold] enumerate in hash-bucket order, which is
   not a stable public contract: it varies with the table's growth history
   and may change between compiler releases.  Protocol code must not
   observe it (lbcc-lint rule det-unordered-hashtbl), so every enumeration
   goes through one of these helpers, which impose a total order on the
   keys.  The sort is O(n log n) over the bindings, so the engine's dist
   protocols and the [Reliable] tier keep their per-neighbour state in
   arrays instead.  Two superstep loops still sort: [Byzantine]'s
   ([plurality], [advance], [compose_echo], [tally_and_serve]) and the
   spanner's own driver ([Spanner.candidates_by_cluster]).  Every other
   call site is on a cold path (graph construction, delta normalisation). *)

let sorted_bindings ~compare tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)

let iter_sorted ~compare f tbl =
  List.iter (fun (k, v) -> f k v) (sorted_bindings ~compare tbl)
