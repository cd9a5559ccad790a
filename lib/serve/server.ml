(* Socket front-end for the daemon core: a single-process Unix.select event
   loop speaking the length-prefixed Proto frames.

   The loop owns no solver state and makes no scheduling decisions — it
   only moves bytes: accept connections, feed complete payloads to
   Daemon.handle, tick the daemon (force-ticking when the socket set is
   idle so lonely bins never starve), and flush the daemon's output queue
   back to the owning client.  SIGTERM/SIGINT flip the daemon into drain
   mode; the loop then stops accepting, answers everything admitted, and
   returns so the executable can dump the final stats snapshot. *)

type endpoint = Unix_sock of string | Tcp of string * int

let endpoint_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let addr_of = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let socket endpoint =
  let domain = match endpoint with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
  Unix.socket domain Unix.SOCK_STREAM 0

(* A Unix socket's file outlives the socket: [bind_listen] clears one left
   by a crashed run (bind would fail on it), and [run] removes its own. *)
let unlink_socket_file = function
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

let bind_listen endpoint =
  unlink_socket_file endpoint;
  let fd = socket endpoint in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (addr_of endpoint);
  Unix.listen fd 64;
  fd

let connect endpoint =
  let fd = socket endpoint in
  Unix.connect fd (addr_of endpoint);
  fd

(* One connected client: its fd, its frame reassembly buffer, and the
   daemon-side client id used to route responses back. *)
type conn = { cid : int; fd : Unix.file_descr; reader : Proto.Reader.t }

let write_all fd buf =
  let len = Bytes.length buf in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd buf !off (len - !off)
  done

let install_drain_signals daemon =
  let drain = Sys.Signal_handle (fun _ -> Daemon.request_shutdown daemon) in
  Sys.set_signal Sys.sigterm drain;
  Sys.set_signal Sys.sigint drain;
  (* A client that disconnects mid-response must not kill the daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let run daemon endpoint listen_fd =
  install_drain_signals daemon;
  let conns = ref [] in
  let next_cid = ref 0 in
  let scratch = Bytes.create 65536 in
  let drop c =
    conns := List.filter (fun c' -> c'.cid <> c.cid) !conns;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let accept_ready () =
    match Unix.accept listen_fd with
    | fd, _ ->
        let cid = !next_cid in
        incr next_cid;
        conns := { cid; fd; reader = Proto.Reader.create () } :: !conns
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  let read_ready c =
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | 0 -> drop c
    | n -> (
        Proto.Reader.feed c.reader scratch n;
        try
          let rec pump () =
            match Proto.Reader.next c.reader with
            | None -> ()
            | Some payload ->
                (match Proto.decode_request payload with
                | id, req -> Daemon.handle daemon ~client:c.cid ~id req
                | exception Proto.Decode_error msg ->
                    (* Framing survived but the payload is garbage: tell the
                       client (id 0: the real id may be unparseable) and cut
                       the connection — the stream is not trustworthy. *)
                    (try
                       write_all c.fd
                         (Proto.encode_response ~id:0
                            (Proto.Error_r
                               { code = Proto.Bad_request; message = msg }))
                     with Unix.Unix_error _ -> ());
                    drop c;
                    raise Exit);
                pump ()
          in
          pump ()
        with
        | Exit -> ()
        | Proto.Decode_error _ -> drop c)
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> drop c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let flush_output () =
    List.iter
      (fun (cid, frame) ->
        match List.find_opt (fun c -> c.cid = cid) !conns with
        | None -> () (* client went away; its responses are dropped *)
        | Some c -> (
            try write_all c.fd frame
            with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
              drop c))
      (Daemon.take_output daemon)
  in
  let finished = ref false in
  while not !finished do
    let accepting = not (Daemon.shutting_down daemon) in
    let read_fds =
      (if accepting then [ listen_fd ] else [])
      @ List.map (fun c -> c.fd) !conns
    in
    let ready, _, _ =
      match Unix.select read_fds [] [] 0.05 with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let idle = match ready with [] -> true | _ -> false in
    if accepting && List.memq listen_fd ready then accept_ready ();
    List.iter
      (fun c -> if List.memq c.fd ready then read_ready c)
      (* iterate over a snapshot: read_ready mutates !conns on drop *)
      !conns;
    (* Execute every ripe batch; when the sockets are idle (or draining),
       force one dispatch so waiting bins keep aging toward the window. *)
    while Daemon.tick daemon do
      ()
    done;
    if idle || Daemon.shutting_down daemon then
      ignore (Daemon.tick ~force:true daemon : bool);
    flush_output ();
    if Daemon.shutting_down daemon && Daemon.pending daemon = 0 then begin
      Daemon.drain daemon;
      flush_output ();
      finished := true
    end
  done;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  unlink_socket_file endpoint
