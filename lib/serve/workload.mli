(** Seeded zipf-distributed request traces for the SERVE load generator.

    Pure functions of the config: the daemon-side identity checker and the
    client rebuild identical operations (and right-hand sides) from the same
    seeds.  Graph popularity follows a zipf(s) law over the fleet — a few
    hot graphs and a long tail, the regime where fingerprint coalescing
    pays. *)

type op =
  | Solve_op of { graph : int; op_seed : int }
  | Resistance_op of { graph : int; op_seed : int }
  | Flow_op of { net : int }

type config = {
  seed : int;
  clients : int;
  per_client : int;  (** requests issued by each client *)
  graphs : int;  (** fleet size the zipf law ranges over *)
  zipf_s : float;  (** zipf exponent; 1.0 = classic *)
  resistance_frac : float;  (** fraction of ops querying [R_eff] *)
  flows : int;  (** total flow ops, dealt to the first trace slots *)
  networks : int;  (** required [> 0] when [flows > 0] *)
}

val trace : config -> op array array
(** [trace cfg].(c).(j) is client [c]'s [j]-th operation.  Deterministic:
    each client draws from its own seeded stream. *)

val rhs : n:int -> op_seed:int -> float array
(** The mean-centered gaussian right-hand side of a [Solve_op],
    reproducible from the op seed. *)

val st_pair : n:int -> op_seed:int -> int * int
(** The distinct [(s, t)] vertex pair of a [Resistance_op]. *)
