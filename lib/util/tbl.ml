(* Deterministic views of Hashtbl.

   [Hashtbl.iter]/[Hashtbl.fold] enumerate in hash-bucket order, which is
   not a stable public contract: it varies with the table's growth history
   and may change between compiler releases.  Protocol code must not
   observe it (lbcc-lint rule det-unordered-hashtbl), so every enumeration
   goes through one of these helpers, which impose a total order on the
   keys.  The sort is O(n log n) over the bindings — all call sites are on
   cold paths (result assembly, diagnostics), never in the superstep loop. *)

let sorted_bindings ~compare tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)

let sorted_keys ~compare tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let iter_sorted ~compare f tbl =
  List.iter (fun (k, v) -> f k v) (sorted_bindings ~compare tbl)
