(** A small string-keyed LRU cache with hit/miss statistics.

    Sized for prepared-operator handles: a handful of heavyweight values
    keyed by graph fingerprint + solver parameters, where a linear eviction
    scan is cheaper than maintaining an intrusive list.  Not thread-safe —
    callers interact with the cache from the orchestrating domain only (the
    batched solve path parallelizes {e inside} a handle, never across the
    cache). *)

type 'v t

type stats = {
  hits : int;
  misses : int;  (** [find_or_add] builds, or [find] returns [None] *)
  evictions : int;  (** entries displaced by capacity pressure *)
  size : int;
  capacity : int;
}

val create :
  ?capacity:int ->
  ?metrics:Lbcc_obs.Metrics.t ->
  ?metrics_prefix:string ->
  unit ->
  'v t
(** [capacity] defaults to 8; [0] disables caching (every lookup misses and
    nothing is retained).  When [metrics] is given, the cache mirrors its
    counters into the registry as they change — ["<prefix>.hits"],
    ["<prefix>.misses"], ["<prefix>.evictions"] counters and a
    ["<prefix>.size"] gauge ([metrics_prefix] defaults to ["cache"]) — the
    canonical export consumers read instead of the {!stats} snapshot ints.
    @raise Invalid_argument when [capacity < 0]. *)

val size : 'v t -> int

val find : 'v t -> string -> 'v option
(** Refreshes the entry's recency on hit; counts a hit or miss. *)

val add : 'v t -> string -> 'v -> unit
(** Insert or overwrite; evicts the least-recently-used entry when over
    capacity.  Does not count a hit or miss. *)

val find_or_add : 'v t -> string -> (unit -> 'v) -> 'v * bool
(** [(v, hit)]: the cached value and [true], or the freshly built (and
    inserted) value and [false]. *)

val remove : 'v t -> string -> unit
(** Drop an entry if present (no eviction counted). *)

val stats : 'v t -> stats
