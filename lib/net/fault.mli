(** Deterministic fault injection for the simulated network.

    The engine is lossless and crash-free by default; a [t] threaded through
    {!Engine.run} as [?faults] turns on a repeatable failure model:

    - {b message drops}: each (sender, receiver) delivery is lost
      independently with probability [drop_prob];
    - {b duplication}: a delivered message is handed to the receiver twice
      with probability [duplicate_prob] (the inbox sees two copies);
    - {b crash-stop}: [crashes = [(v, r); ...]] removes vertex [v] at the
      start of superstep [r] — it neither steps nor sends from then on;
    - {b adversarial drops}: on top of the random losses, a budget of
      [adversarial_drops] deliveries that survived the coin flips are
      destroyed.  With an empty Byzantine set the budget burns first-come
      in engine delivery order (worst case in the restricted-clique sense);
      with a Byzantine set it is targeted — only deliveries from Byzantine
      senders are silently destroyed, when their (deterministic) coin
      fires;
    - {b payload corruption}: each delivery is tampered independently with
      probability [corrupt_prob] — the engine rewrites the payload with a
      seeded bit-flip transform keyed by the delivery's tamper salt;
    - {b equivocation}: a vertex listed in [byzantine] tampers each of its
      deliveries independently with probability [byz_prob].  Because the
      tamper salt is keyed on (round, sender, receiver), distinct receivers
      of the same broadcast see distinct corrupted payloads: the Byzantine
      sender equivocates even inside the broadcast discipline.

    {b Determinism contract.} Random decisions are a pure function of
    [(seed, superstep, sender, receiver)] — independent of query order — so
    the same seed reproduces the same fault schedule bit-for-bit, and two
    protocols with different communication patterns still see the same fate
    for the same (round, edge) slot.  The adversarial budget is the one
    stateful component; it consumes in the engine's deterministic delivery
    order.  Per-purpose key material is derived from the single seed with
    {!Lbcc_util.Prng.split}; the Byzantine salts draw after the historical
    drop/duplicate salts, so pre-Byzantine schedules are unchanged. *)

type spec = {
  drop_prob : float;  (** per-delivery loss probability, in [\[0, 1)] *)
  duplicate_prob : float;  (** per-delivery duplication probability *)
  crashes : (int * int) list;  (** [(vertex, superstep)] crash-stop points *)
  adversarial_drops : int;  (** silent-drop budget, see {!adversarial_spent} *)
  corrupt_prob : float;  (** per-delivery payload-corruption probability *)
  byzantine : int list;  (** Byzantine (equivocating) vertex set *)
  byz_prob : float;  (** per-delivery tamper probability of a Byzantine src *)
}

val spec :
  ?drop_prob:float ->
  ?duplicate_prob:float ->
  ?crashes:(int * int) list ->
  ?adversarial_drops:int ->
  ?corrupt_prob:float ->
  ?byzantine:int list ->
  ?byz_prob:float ->
  unit ->
  spec
(** All fields default to the lossless value (0 / []). *)

type t

val create : ?seed:int -> spec -> t
(** [create ~seed spec] compiles the spec into an injectable fault plan.
    [seed] defaults to 1.
    @raise Invalid_argument if a probability is outside [\[0, 1)], the
    budget is negative, or a Byzantine vertex id is negative. *)

val lossless : unit -> t
(** A fault plan that never interferes; [Engine] treats it like [None]. *)

val is_lossless : t -> bool

val crashed : t -> vertex:int -> round:int -> bool
(** Has [vertex]'s crash point passed at superstep [round]? *)

val is_byzantine : t -> int -> bool

val byzantine_count : t -> int
(** [f], the size of the Byzantine vertex set. *)

val max_tolerated : n:int -> int
(** The largest Byzantine population an echo-quorum layer over [n] vertices
    can tolerate: [floor((n-1)/3)], i.e. the largest [f] with [n >= 3f+1]. *)

val copies : t -> round:int -> src:int -> dst:int -> int
(** How many copies of the message broadcast by [src] in superstep [round]
    reach [dst]: 0 (dropped), 1, or 2 (duplicated).  Consumes the
    adversarial budget when the random layer lets a message through and the
    silent-drop adversary elects to destroy it. *)

val tamper : t -> round:int -> src:int -> dst:int -> int option
(** [Some salt] when the [src -> dst] delivery of superstep [round] is
    tampered — by channel corruption, or by equivocation when [src] is
    Byzantine.  The salt deterministically keys the payload transform
    (distinct per receiver, which is what makes tampering equivocation).
    Apart from the tamper counters this is a pure function of its
    coordinates, like {!copies}. *)

val tampers : t -> bool
(** Can this plan ever tamper a payload?  ([corrupt_prob > 0] or a
    non-empty Byzantine set with [byz_prob > 0].) *)

val equivocates : t -> bool
(** Is there an active equivocating adversary — a non-empty Byzantine set
    with [byz_prob > 0]?  {!Byzantine} uses this to decide whether its
    Byzantine vertices also forge their echo votes. *)

val drops : t -> int
(** Messages destroyed so far (random + adversarial). *)

val duplicates : t -> int
(** Deliveries duplicated so far. *)

val adversarial_spent : t -> int
(** How much of the adversarial budget has been used. *)

val corruptions : t -> int
(** Deliveries tampered by channel corruption so far. *)

val equivocations : t -> int
(** Deliveries tampered by a Byzantine sender so far. *)

val seed : t -> int

val pp : Format.formatter -> t -> unit
