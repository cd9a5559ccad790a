(* Seeded zipf-distributed request traces for the load generator.

   A trace is a pure function of its config: per-client operation lists are
   drawn from independent Prng streams, with graph popularity following a
   zipf(s) law over the fleet — the canonical shape of fan-in query traffic
   (a few hot graphs, a long cold tail), and the regime where coalescing
   pays: the hot fingerprint's bin fills to max_batch while the window
   bounds the tail's latency. *)

open Lbcc_util

type op =
  | Solve_op of { graph : int; op_seed : int }
  | Resistance_op of { graph : int; op_seed : int }
  | Flow_op of { net : int }

type config = {
  seed : int;
  clients : int;
  per_client : int;
  graphs : int;
  zipf_s : float;
  resistance_frac : float;  (* fraction of ops that query R_eff *)
  flows : int;  (* total flow ops, dealt round-robin from client 0 *)
  networks : int;
}

(* Cumulative zipf(s) distribution over ranks 0..n-1: weight(i) ∝ 1/(i+1)^s. *)
let zipf_cdf ~s ~n =
  if n < 1 then invalid_arg "Workload.zipf_cdf: n < 1";
  let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i wi ->
      acc := !acc +. (wi /. total);
      cdf.(i) <- !acc)
    w;
  cdf.(n - 1) <- 1.0;
  cdf

let sample_zipf prng cdf =
  let u = Prng.float prng in
  let n = Array.length cdf in
  let rec find i = if i >= n - 1 || u < cdf.(i) then i else find (i + 1) in
  find 0

let trace cfg =
  if cfg.clients < 1 then invalid_arg "Workload.trace: clients < 1";
  if cfg.graphs < 1 then invalid_arg "Workload.trace: graphs < 1";
  if cfg.flows > 0 && cfg.networks < 1 then
    invalid_arg "Workload.trace: flow ops need networks";
  let cdf = zipf_cdf ~s:cfg.zipf_s ~n:cfg.graphs in
  let flows_left = ref cfg.flows in
  Array.init cfg.clients (fun c ->
      let prng = Prng.create ((cfg.seed * 31337) + (2 * c) + 1) in
      Array.init cfg.per_client (fun j ->
          (* Flow ops are dealt deterministically to the first slots of the
             round-robin (client-major) order until the budget is spent. *)
          if !flows_left > 0 then begin
            decr flows_left;
            Flow_op { net = ((c * cfg.per_client) + j) mod cfg.networks }
          end
          else begin
            let graph = sample_zipf prng cdf in
            let op_seed = (Prng.int prng 0x3FFFFFF * 64) + (2 * c) + 1 in
            if Prng.bernoulli prng cfg.resistance_frac then
              Resistance_op { graph; op_seed }
            else Solve_op { graph; op_seed }
          end))

(* Mean-centered gaussian right-hand side — reproducible from the op seed,
   so both the client (building the request) and the identity checker
   (recomputing the direct solve) derive the same vector. *)
let rhs ~n ~op_seed =
  let prng = Prng.create op_seed in
  let b = Array.init n (fun _ -> Prng.gaussian prng) in
  let mean = Array.fold_left ( +. ) 0.0 b /. float_of_int n in
  Array.map (fun v -> v -. mean) b

let st_pair ~n ~op_seed =
  if n < 2 then invalid_arg "Workload.st_pair: n < 2";
  let prng = Prng.create op_seed in
  let s = Prng.int prng n in
  let t = Prng.int prng (n - 1) in
  (s, if t >= s then t + 1 else t)
