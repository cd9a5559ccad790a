(* Fixture: a protocol module that follows every rule — seeded RNG, sorted
   table enumeration, accounted broadcasts under taxonomy labels, explicit
   comparators, and one justified waiver. *)

let draw prng = Lbcc_util.Prng.int prng 6

let keys tbl = List.map fst (Lbcc_util.Tbl.sorted_bindings ~compare:Int.compare tbl)

let union dst src =
  (* Set union is insensitive to enumeration order. *)
  (* lbcc-lint: allow det-unordered-hashtbl *)
  Hashtbl.iter (fun k () -> Hashtbl.replace dst k ()) src

let is_zero (x : float) = Float.equal x 0.0

let order xs = List.sort Float.compare xs

let accounted acc =
  Rounds.with_phase acc "solve" (fun () ->
      Rounds.charge acc ~label:"solve/residual-check" ~rounds:1)

let via_param ~accountant () =
  Rounds.charge_broadcast accountant ~label:"query/laplacian-matvec" ~bits:64
