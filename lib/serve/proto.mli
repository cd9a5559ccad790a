(** Wire protocol for [lbcc_serve]: length-prefixed binary frames.

    A frame is a 4-byte big-endian payload length followed by the payload:
    one protocol {!version} byte, one opcode byte, a 4-byte request id
    (echoed verbatim in the matching response — responses may be reordered
    across coalescing bins), and the opcode-specific body.  Floats travel
    as IEEE-754 bit patterns so vectors round-trip bit-for-bit; the SERVE
    bench's identity claims rely on the codec being lossless.

    Version history: v1 had no version byte; v2 (current) prefixes every
    payload with one and adds the {!request.Update} mutation opcode
    (0x07) with its {!response.Update_r} reply (0x87).  A mismatched
    version byte raises {!Decode_error} immediately, so mixed deployments
    fail fast instead of misparsing a mutation. *)

val version : int
(** Protocol version stamped into (and required of) every payload. *)

exception Decode_error of string
(** Malformed payload (unknown opcode, truncated body, trailing bytes,
    out-of-range frame length). *)

type error_code =
  | Overloaded  (** admission control rejected the request (bounded queue) *)
  | Bad_request  (** unknown graph, wrong vector length, bad vertex id *)
  | Internal  (** the solver raised; message carries the exception text *)

type request =
  | Solve of { name : string; eps : float; b : float array }
      (** Theorem 1.3 query against fleet graph [name]; [b] must be
          zero-sum with one entry per vertex. *)
  | Resistance of { name : string; eps : float; s : int; t : int }
      (** Effective resistance [R_eff(s, t)] on fleet graph [name]. *)
  | Flow of { name : string }
      (** Theorem 1.1 min-cost max-flow on fleet network [name]. *)
  | Update of { name : string; delta : Lbcc_graph.Graph.Delta.t }
      (** Mutate fleet graph [name] by a normalized edge delta.  Admitted
          through the same scheduler as solves, so mutations interleave
          with coalesced batches deterministically; the reply reports the
          post-update shape and the incremental re-preparation cost. *)
  | Stats  (** SLO snapshot as strict JSON ({!response.Json_r}). *)
  | Info  (** fleet roster (names, sizes, fingerprints) as strict JSON *)
  | Shutdown  (** graceful drain: answer everything admitted, then exit *)

type response =
  | Solution of {
      solution : float array;
      residual : float;
      iterations : int;
      rounds : int;  (** query-phase rounds charged for this solve *)
      bits : int;
    }
  | Resistance_r of { resistance : float; rounds : int; bits : int }
  | Flow_r of {
      flow : float array;
      value : int;
      cost : int;
      rounds : int;
      bits : int;
    }
  | Json_r of string  (** strict JSON body ([Stats] / [Info] replies) *)
  | Ok_r
  | Update_r of {
      n : int;  (** vertex count after the update *)
      m : int;  (** edge count after the update *)
      fingerprint : string;  (** hex fingerprint of the mutated graph *)
      rounds : int;  (** update-phase rounds charged (announce + re-sample) *)
      bits : int;
    }
  | Error_r of { code : error_code; message : string }

val encode_request : id:int -> request -> Bytes.t
(** Complete frame, length prefix included.  [id] must fit an unsigned
    32-bit integer. *)

val encode_response : id:int -> response -> Bytes.t

val decode_request : Bytes.t -> int * request
(** Decode a payload (no length prefix) as [(id, request)].
    @raise Decode_error on malformed input. *)

val decode_response : Bytes.t -> int * response

(** Incremental frame extraction over a byte stream: feed whatever the
    socket produced, pop complete payloads as they become available. *)
module Reader : sig
  type t

  val create : unit -> t

  val feed : t -> Bytes.t -> int -> unit
  (** Append the first [n] bytes of the buffer to the stream. *)

  val next : t -> Bytes.t option
  (** The next complete payload (length prefix stripped), or [None] until
      more bytes arrive.  @raise Decode_error on an out-of-range length
      prefix (the connection is unrecoverable). *)

end
