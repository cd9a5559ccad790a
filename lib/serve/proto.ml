(* Wire protocol for lbcc_serve: length-prefixed binary frames.

   Frame   = u32_be payload length ++ payload
   Payload = u8 version ++ u8 opcode ++ u32_be request id
             ++ opcode-specific body

   Version 1 had no version byte; version 2 added it together with the
   Update opcode (0x07/0x87), so both sides fail fast on a mixed
   deployment instead of misparsing a mutation.

   Integers are big-endian; floats travel as their IEEE-754 bit pattern
   (Int64.bits_of_float), so a solution vector round-trips bit-for-bit —
   the SERVE bench's identity claims compare daemon responses against
   direct Lbcc calls at the bit level, and the codec must not be the
   component that loses a ulp. *)

module Graph = Lbcc_graph.Graph

exception Decode_error of string

let version = 2

let max_payload = 1 lsl 26
(* 64 MiB: generous for any fleet graph (an n-vertex solve response is
   8 n + tens of bytes) while rejecting corrupt length prefixes before they
   turn into an allocation attack on the daemon. *)

type error_code = Overloaded | Bad_request | Internal

type request =
  | Solve of { name : string; eps : float; b : float array }
  | Resistance of { name : string; eps : float; s : int; t : int }
  | Flow of { name : string }
  | Update of { name : string; delta : Graph.Delta.t }
  | Stats
  | Info
  | Shutdown

type response =
  | Solution of {
      solution : float array;
      residual : float;
      iterations : int;
      rounds : int;
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
  | Json_r of string
  | Ok_r
  | Update_r of {
      n : int;
      m : int;
      fingerprint : string;
      rounds : int;
      bits : int;
    }
  | Error_r of { code : error_code; message : string }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let add_u8 b v = Buffer.add_uint8 b (v land 0xff)

let add_u32 b v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Proto: u32 out of range";
  Buffer.add_int32_be b (Int32.of_int v)

let add_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

let add_string b s =
  if String.length s > 0xffff then invalid_arg "Proto: string too long";
  Buffer.add_uint16_be b (String.length s);
  Buffer.add_string b s

let add_floats b a =
  add_u32 b (Array.length a);
  Array.iter (fun v -> add_f64 b v) a

let code_of_error = function Overloaded -> 1 | Bad_request -> 2 | Internal -> 3

let error_of_code = function
  | 1 -> Overloaded
  | 2 -> Bad_request
  | 3 -> Internal
  | c -> raise (Decode_error (Printf.sprintf "unknown error code %d" c))

let encode_payload buf ~id op body =
  add_u8 buf version;
  add_u8 buf op;
  add_u32 buf id;
  body buf

let add_delta buf d =
  let dels = Graph.Delta.deletes d in
  add_u32 buf (Array.length dels);
  Array.iter (fun id -> add_u32 buf id) dels;
  let rws = Graph.Delta.reweights d in
  add_u32 buf (Array.length rws);
  Array.iter
    (fun (id, w) ->
      add_u32 buf id;
      add_f64 buf w)
    rws;
  let ins = Graph.Delta.inserts d in
  add_u32 buf (Array.length ins);
  Array.iter
    (fun (e : Graph.edge) ->
      add_u32 buf e.Graph.u;
      add_u32 buf e.Graph.v;
      add_f64 buf e.Graph.w)
    ins

let frame_of buf =
  let payload = Buffer.contents buf in
  let n = String.length payload in
  if n > max_payload then invalid_arg "Proto: payload exceeds max_payload";
  let out = Bytes.create (4 + n) in
  Bytes.set_int32_be out 0 (Int32.of_int n);
  Bytes.blit_string payload 0 out 4 n;
  out

let encode_request ~id req =
  let buf = Buffer.create 64 in
  (match req with
  | Solve { name; eps; b } ->
      encode_payload buf ~id 0x01 (fun buf ->
          add_string buf name;
          add_f64 buf eps;
          add_floats buf b)
  | Resistance { name; eps; s; t } ->
      encode_payload buf ~id 0x02 (fun buf ->
          add_string buf name;
          add_f64 buf eps;
          add_u32 buf s;
          add_u32 buf t)
  | Flow { name } ->
      encode_payload buf ~id 0x03 (fun buf -> add_string buf name)
  | Update { name; delta } ->
      encode_payload buf ~id 0x07 (fun buf ->
          add_string buf name;
          add_delta buf delta)
  | Stats -> encode_payload buf ~id 0x04 (fun _ -> ())
  | Info -> encode_payload buf ~id 0x05 (fun _ -> ())
  | Shutdown -> encode_payload buf ~id 0x06 (fun _ -> ()));
  frame_of buf

let encode_response ~id resp =
  let buf = Buffer.create 64 in
  (match resp with
  | Solution { solution; residual; iterations; rounds; bits } ->
      encode_payload buf ~id 0x81 (fun buf ->
          add_f64 buf residual;
          add_u32 buf iterations;
          add_u32 buf rounds;
          add_u32 buf bits;
          add_floats buf solution)
  | Resistance_r { resistance; rounds; bits } ->
      encode_payload buf ~id 0x82 (fun buf ->
          add_f64 buf resistance;
          add_u32 buf rounds;
          add_u32 buf bits)
  | Flow_r { flow; value; cost; rounds; bits } ->
      encode_payload buf ~id 0x83 (fun buf ->
          add_u32 buf value;
          add_u32 buf cost;
          add_u32 buf rounds;
          add_u32 buf bits;
          add_floats buf flow)
  | Json_r s ->
      encode_payload buf ~id 0x84 (fun buf ->
          add_u32 buf (String.length s);
          Buffer.add_string buf s)
  | Ok_r -> encode_payload buf ~id 0x85 (fun _ -> ())
  | Update_r { n; m; fingerprint; rounds; bits } ->
      encode_payload buf ~id 0x87 (fun buf ->
          add_u32 buf n;
          add_u32 buf m;
          add_string buf fingerprint;
          add_u32 buf rounds;
          add_u32 buf bits)
  | Error_r { code; message } ->
      encode_payload buf ~id 0x86 (fun buf ->
          add_u8 buf (code_of_error code);
          add_string buf message));
  frame_of buf

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

type cursor = { data : Bytes.t; mutable pos : int }

let need c n =
  if c.pos + n > Bytes.length c.data then
    raise (Decode_error "truncated payload")

let get_u8 c =
  need c 1;
  let v = Bytes.get_uint8 c.data c.pos in
  c.pos <- c.pos + 1;
  v

let get_u32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_be c.data c.pos) land 0xffff_ffff in
  c.pos <- c.pos + 4;
  v

let get_f64 c =
  need c 8;
  let v = Int64.float_of_bits (Bytes.get_int64_be c.data c.pos) in
  c.pos <- c.pos + 8;
  v

let get_string c =
  need c 2;
  let n = Bytes.get_uint16_be c.data c.pos in
  c.pos <- c.pos + 2;
  need c n;
  let s = Bytes.sub_string c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_floats c =
  let n = get_u32 c in
  if n * 8 > Bytes.length c.data - c.pos then
    raise (Decode_error "float array length exceeds payload");
  Array.init n (fun _ -> get_f64 c)

let get_blob c =
  let n = get_u32 c in
  need c n;
  let s = Bytes.sub_string c.data c.pos n in
  c.pos <- c.pos + n;
  s

let finish c v =
  if c.pos <> Bytes.length c.data then
    raise (Decode_error "trailing bytes after payload");
  v

let get_version c =
  let v = get_u8 c in
  if v <> version then
    raise (Decode_error (Printf.sprintf "protocol version %d, expected %d" v version))

let get_delta c =
  let dels = get_u32 c in
  let ops = ref [] in
  for _ = 1 to dels do
    ops := Graph.Delta.Delete (get_u32 c) :: !ops
  done;
  let rws = get_u32 c in
  for _ = 1 to rws do
    let id = get_u32 c in
    let w = get_f64 c in
    ops := Graph.Delta.Reweight (id, w) :: !ops
  done;
  let ins = get_u32 c in
  for _ = 1 to ins do
    let u = get_u32 c in
    let v = get_u32 c in
    let w = get_f64 c in
    ops := Graph.Delta.Insert { Graph.u; v; w } :: !ops
  done;
  try Graph.Delta.of_ops (List.rev !ops)
  with Invalid_argument msg -> raise (Decode_error msg)

let decode_request payload =
  let c = { data = payload; pos = 0 } in
  get_version c;
  let op = get_u8 c in
  let id = get_u32 c in
  let req =
    match op with
    | 0x01 ->
        let name = get_string c in
        let eps = get_f64 c in
        let b = get_floats c in
        Solve { name; eps; b }
    | 0x02 ->
        let name = get_string c in
        let eps = get_f64 c in
        let s = get_u32 c in
        let t = get_u32 c in
        Resistance { name; eps; s; t }
    | 0x03 -> Flow { name = get_string c }
    | 0x07 ->
        let name = get_string c in
        let delta = get_delta c in
        Update { name; delta }
    | 0x04 -> Stats
    | 0x05 -> Info
    | 0x06 -> Shutdown
    | op -> raise (Decode_error (Printf.sprintf "unknown request opcode 0x%02x" op))
  in
  finish c (id, req)

let decode_response payload =
  let c = { data = payload; pos = 0 } in
  get_version c;
  let op = get_u8 c in
  let id = get_u32 c in
  let resp =
    match op with
    | 0x81 ->
        let residual = get_f64 c in
        let iterations = get_u32 c in
        let rounds = get_u32 c in
        let bits = get_u32 c in
        let solution = get_floats c in
        Solution { solution; residual; iterations; rounds; bits }
    | 0x82 ->
        let resistance = get_f64 c in
        let rounds = get_u32 c in
        let bits = get_u32 c in
        Resistance_r { resistance; rounds; bits }
    | 0x83 ->
        let value = get_u32 c in
        let cost = get_u32 c in
        let rounds = get_u32 c in
        let bits = get_u32 c in
        let flow = get_floats c in
        Flow_r { flow; value; cost; rounds; bits }
    | 0x84 -> Json_r (get_blob c)
    | 0x85 -> Ok_r
    | 0x87 ->
        let n = get_u32 c in
        let m = get_u32 c in
        let fingerprint = get_string c in
        let rounds = get_u32 c in
        let bits = get_u32 c in
        Update_r { n; m; fingerprint; rounds; bits }
    | 0x86 ->
        let code = error_of_code (get_u8 c) in
        let message = get_string c in
        Error_r { code; message }
    | op ->
        raise (Decode_error (Printf.sprintf "unknown response opcode 0x%02x" op))
  in
  finish c (id, resp)

(* ------------------------------------------------------------------ *)
(* Incremental frame reader                                            *)

module Reader = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 4096; len = 0 }

  let feed t src n =
    if n > 0 then begin
      let cap = Bytes.length t.buf in
      if t.len + n > cap then begin
        let cap' = max (t.len + n) (2 * cap) in
        let buf' = Bytes.create cap' in
        Bytes.blit t.buf 0 buf' 0 t.len;
        t.buf <- buf'
      end;
      Bytes.blit src 0 t.buf t.len n;
      t.len <- t.len + n
    end

  let next t =
    if t.len < 4 then None
    else begin
      let n = Int32.to_int (Bytes.get_int32_be t.buf 0) in
      if n < 0 || n > max_payload then
        raise (Decode_error (Printf.sprintf "frame length %d out of range" n));
      if t.len < 4 + n then None
      else begin
        let payload = Bytes.sub t.buf 4 n in
        let rest = t.len - 4 - n in
        Bytes.blit t.buf (4 + n) t.buf 0 rest;
        t.len <- rest;
        Some payload
      end
    end
end
