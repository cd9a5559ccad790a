type topology = Input_graph | Clique

type t = { topology : topology }

let broadcast_congest = { topology = Input_graph }
let broadcast_congested_clique = { topology = Clique }

let bandwidth ~n = 2 * Lbcc_util.Bits.id_bits ~n

let name t =
  match t.topology with
  | Input_graph -> "Broadcast CONGEST"
  | Clique -> "Broadcast Congested Clique"

let pp ppf t = Format.pp_print_string ppf (name t)

type reliability = None | Crash_safe | Byzantine_safe

let reliability_name = function
  | None -> "none"
  | Crash_safe -> "crash-safe"
  | Byzantine_safe -> "byzantine-safe"

let reliability_of_string s =
  match String.lowercase_ascii s with
  | "none" | "raw" -> Option.Some None
  | "crash" | "crash-safe" | "reliable" -> Option.Some Crash_safe
  | "byzantine" | "byzantine-safe" | "byz" -> Option.Some Byzantine_safe
  | _ -> Option.None

let pp_reliability ppf r = Format.pp_print_string ppf (reliability_name r)
