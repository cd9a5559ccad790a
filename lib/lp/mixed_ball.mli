(** Projection on a mixed norm ball (Lemma 4.10).

    Solves [arg max { a^T x : ||x||_2 + ||l^{-1} x||_inf <= 1 }] for
    [l > 0].  Writing [s = t/(1-t)] for the ∞-radius share [t], the
    maximizer clamps the coordinates with the largest [|a_i|/l_i] to
    [± s l_i] and spends the remaining 2-norm budget along [a]; the
    objective [g(t)] is concave, so its maximum is found by a
    golden-section search over [t], each evaluation using only three
    prefix sums of the (implicitly) sorted coordinates — the quantities a
    Broadcast Congested Clique can aggregate in [O(log(U/eps))] rounds
    per query (we charge exactly that). *)

module Vec = Lbcc_linalg.Vec

type result = {
  x : Vec.t;
  value : float;  (** attained [a^T x] *)
  t : float;  (** optimal ∞/2 budget split *)
  clamped : int;  (** number of clamped coordinates, [i_t] *)
  evaluations : int;  (** number of [g] evaluations (network queries) *)
  rounds : int;  (** rounds charged when an accountant is supplied *)
}

val maximize : ?accountant:Lbcc_net.Rounds.t -> a:Vec.t -> l:Vec.t -> unit -> result
(** The distributed algorithm.
    @raise Invalid_argument unless [dim a = dim l] and [l > 0]. *)

val brute_force : a:Vec.t -> l:Vec.t -> unit -> result
(** Reference maximizer: dense scan over a fine [t]-grid with local
    refinement; [O(m log m + grid)]. *)

val feasible : l:Vec.t -> Vec.t -> bool
(** Membership in the ball [||x||_2 + ||l^{-1} x||_inf <= 1 + 1e-7]. *)
