(** Fixed-width payload codecs, packed message buffers and the
    counting-sort delivery plan of the flat engine core (DESIGN.md §10).

    A codec encodes one protocol message into a fixed-width slot of a
    shared [Bytes] buffer.  The flat engine keeps two such buffers (the
    broadcasts of the previous and the current superstep) and reuses them
    every round, so the steady-state message path allocates nothing.
    Encoding must be lossless: the differential harness and the QCheck
    round-trip properties compare decoded payloads bit for bit. *)

type 'msg codec = {
  width : int;  (** bytes per encoded message; slots are [width] apart *)
  encode : Bytes.t -> int -> 'msg -> unit;
      (** [encode buf off msg] writes exactly [width] bytes at [off]. *)
  decode : Bytes.t -> int -> 'msg;
}

val int_codec : int codec
(** Full 63-bit OCaml ints, 8 bytes, little-endian. *)

val float_codec : float codec
(** IEEE-754 bit pattern, 8 bytes: the round trip is the identity on every
    float, including NaNs and [-0.]. *)

(** {2 Per-round message buffers} *)

type 'msg buffer
(** [n] fixed-width slots plus a presence bytemap.  Distinct slots may be
    written from concurrent pool chunks; the buffer itself carries no
    locks. *)

val buffer : 'msg codec -> n:int -> 'msg buffer
val length : _ buffer -> int

val clear : _ buffer -> unit
(** Empties the buffer by clearing the presence map only — stale payload
    bytes remain in the data buffer but can never be read back, because
    {!get} is gated on {!mem}. *)

val set : 'msg buffer -> int -> 'msg -> unit
val mem : _ buffer -> int -> bool

val get : 'msg buffer -> int -> 'msg
(** @raise Invalid_argument if slot [v] holds no message. *)

(** {2 Counting-sort delivery plan} *)

type plan = { off : int array; srcs : int array }
(** Receiver-major CSR over the directed delivery pairs [(src, dst)] of an
    undirected graph: vertex [v] hears senders
    [srcs.(off.(v)) .. srcs.(off.(v+1)-1)], ascending, parallel edges
    adjacent. *)

val plan : Lbcc_graph.Graph.t -> plan
(** Two counting passes over the edge array — O(n + m), no intermediate
    per-vertex lists, no comparison sort.  Each segment lists a receiver's
    in-neighbors in ascending order, the inbox order {!Engine.run}
    guarantees on [Input_graph] topologies. *)

val in_degree : plan -> int -> int
val max_in_degree : plan -> int
