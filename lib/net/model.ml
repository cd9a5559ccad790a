type topology = Input_graph | Clique

type t = { topology : topology }

let broadcast_congest = { topology = Input_graph }
let broadcast_congested_clique = { topology = Clique }

let bandwidth ~n = 2 * Lbcc_util.Bits.id_bits ~n

let name t =
  match t.topology with
  | Input_graph -> "Broadcast CONGEST"
  | Clique -> "Broadcast Congested Clique"

type reliability = None | Crash_safe | Byzantine_safe

let reliability_name = function
  | None -> "none"
  | Crash_safe -> "crash-safe"
  | Byzantine_safe -> "byzantine-safe"
