(** Socket front-end for the {!Daemon} core: a single-process
    [Unix.select] event loop over length-prefixed {!Proto} frames.

    The loop only moves bytes; every scheduling decision lives in
    {!Sched}/{!Daemon}, so a socket-driven daemon behaves identically to
    one driven in-process by the test suite. *)

type endpoint = Unix_sock of string | Tcp of string * int

val endpoint_to_string : endpoint -> string

val bind_listen : endpoint -> Unix.file_descr
(** Bound, listening socket for the endpoint.  A stale Unix socket file is
    unlinked first.  [Tcp] hosts must be numeric addresses (no resolver —
    the daemon stays deterministic and offline). *)

val connect : endpoint -> Unix.file_descr
(** Client side: a connected stream socket. *)

val run : Daemon.t -> Unix.file_descr -> unit
(** Serve until shutdown: accept, decode, {!Daemon.handle}, tick, flush.
    Malformed payloads answer [Bad_request] (id 0) and drop the
    connection.  SIGTERM and SIGINT request a graceful drain and SIGPIPE
    is ignored.  Once draining, the
    loop stops accepting, answers every admitted request, flushes, closes
    all sockets (including [listen_fd]) and returns. *)
