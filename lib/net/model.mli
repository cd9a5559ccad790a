(** The broadcast message-passing models of the paper (Section 2.1).

    Both models proceed in synchronous rounds with bandwidth
    [B = Theta(log n)] bits per message, and in both a vertex sends the same
    message to all of its neighbors.  They differ in topology: Broadcast
    CONGEST communicates along input-graph edges, the Broadcast Congested
    Clique all-to-all.  (The unicast CONGEST and Congested Clique models,
    where a vertex may address distinct neighbors distinctly, are not
    simulated.) *)

type topology = Input_graph | Clique

type t = { topology : topology }

val broadcast_congest : t
val broadcast_congested_clique : t

val bandwidth : n:int -> int
(** The per-message bandwidth [B] in bits for an [n]-vertex network:
    [2 * ceil(log2 n)], i.e. [Theta(log n)] with the constant the paper's
    messages (an ID plus a small tag) need. *)

val name : t -> string

type reliability =
  | None  (** raw engine: faults hit the protocol directly *)
  | Crash_safe
      (** {!Reliable}: ack/retransmit recovery from drops, duplicates and
          crash-stop vertices *)
  | Byzantine_safe
      (** {!Byzantine}: echo-quorum reliable broadcast tolerating
          [f < n/3] corrupting / equivocating vertices *)
(** The delivery-guarantee tiers every pipeline entry point can run under.
    Each tier strictly strengthens the previous one and costs strictly more
    rounds; the overhead is charged under its own accounting label
    (["<label>/retransmit"], ["<label>/byz-echo"]) so the tiers stay
    comparable in the paper's round currency (DESIGN.md §9). *)

val reliability_name : reliability -> string
(** ["none" | "crash-safe" | "byzantine-safe"]. *)
