(* lbcc-serve: the coalescing solver daemon and its load generator.

     lbcc-serve serve  --socket /tmp/lbcc.sock --graphs 4 --vertices 48
     lbcc-serve client --socket /tmp/lbcc.sock info
     lbcc-serve client --socket /tmp/lbcc.sock solve --graph g0 --rhs-seed 7
     lbcc-serve bench  --out _bench_reports

   The bench forks daemon children (before the parent ever spawns worker
   domains — forking a multi-domain OCaml 5 process is not safe), replays a
   seeded zipf trace over concurrent closed-loop clients against a
   coalescing daemon and a serial-dispatch baseline, checks every daemon
   response bit-for-bit against direct in-process solves, overloads a
   small-queue daemon at 2x its admission budget, and writes the SERVE
   report (lbcc-bench/1 claims).

   Exit contract (DESIGN.md §11): 0 success; 1 an SLO claim in the bench
   report fell outside its bound; 2 usage; 3 internal error or timeout. *)

open Cmdliner
module Graph = Lbcc_graph.Graph
module Json = Lbcc_obs.Json
module Report = Lbcc_obs.Report
module Clock = Lbcc_obs.Clock
module Ctx = Lbcc_service.Ctx
module Prepared = Lbcc_service.Prepared
module Lbcc = Lbcc_core.Lbcc
module Prng = Lbcc_util.Prng
module Proto = Lbcc_serve.Proto
module Sched = Lbcc_serve.Sched
module Fleet = Lbcc_serve.Fleet
module Workload = Lbcc_serve.Workload
module Daemon = Lbcc_serve.Daemon
module Server = Lbcc_serve.Server
open Cli_args

let solve_eps = 1e-8
let resist_eps = 1e-10

(* ------------------------------------------------------------------ *)
(* Small client plumbing                                               *)

let write_all fd buf =
  let len = Bytes.length buf in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd buf !off (len - !off)
  done

type conn = { fd : Unix.file_descr; reader : Proto.Reader.t }

let conn_open endpoint = { fd = Server.connect endpoint; reader = Proto.Reader.create () }
let conn_close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One blocking request/response exchange on a connection. *)
let rpc c ~id req =
  write_all c.fd (Proto.encode_request ~id req);
  let scratch = Bytes.create 65536 in
  let rec loop () =
    match Proto.Reader.next c.reader with
    | Some payload -> Proto.decode_response payload
    | None ->
        let k = Unix.read c.fd scratch 0 (Bytes.length scratch) in
        if k = 0 then failwith "lbcc-serve: connection closed by daemon";
        Proto.Reader.feed c.reader scratch k;
        loop ()
  in
  loop ()

(* An integer field of a parsed daemon reply. *)
let int_field json key =
  match Json.member key json with
  | Some (Json.Int v) -> v
  | _ -> failwith (Printf.sprintf "lbcc-serve: no %S field in reply" key)

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let endpoint_conv =
  let parse s =
    match String.index_opt s ':' with
    | None -> Ok (Server.Unix_sock s)
    | Some _ -> (
        match String.split_on_char ':' s with
        | [ "unix"; path ] -> Ok (Server.Unix_sock path)
        | [ "tcp"; host; port ] -> (
            match int_of_string_opt port with
            | Some p when p > 0 && p < 65536 -> Ok (Server.Tcp (host, p))
            | _ -> Error (`Msg ("bad port in " ^ s)))
        | _ -> Error (`Msg ("bad endpoint " ^ s ^ " (PATH, unix:PATH or tcp:HOST:PORT)")))
  in
  Arg.conv (parse, fun ppf e -> Format.pp_print_string ppf (Server.endpoint_to_string e))

let socket_arg =
  Arg.(
    value
    & opt endpoint_conv (Server.Unix_sock "/tmp/lbcc-serve.sock")
    & info [ "socket" ] ~docv:"ENDPOINT"
        ~doc:
          "Daemon endpoint: a Unix socket $(b,PATH) (or $(b,unix:PATH)), or \
           $(b,tcp:HOST:PORT) with a numeric host.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Fleet and solver seed.")

let graphs_arg =
  Arg.(value & opt positive_int 4 & info [ "graphs" ] ~docv:"G" ~doc:"Fleet size (graphs g0..).")

let vertices_arg =
  Arg.(value & opt positive_int 48 & info [ "vertices" ] ~docv:"N" ~doc:"Vertices per fleet graph.")

let family_arg =
  let family_conv =
    Arg.conv
      ( (fun s ->
          match Fleet.family_of_string s with
          | Some f -> Ok f
          | None -> Error (`Msg ("unknown family " ^ s))),
        fun ppf f -> Format.pp_print_string ppf (Fleet.family_to_string f) )
  in
  Arg.(
    value & opt family_conv Fleet.Er
    & info [ "family" ] ~docv:"FAMILY" ~doc:"Graph family: er, grid, geometric, complete.")

let networks_arg =
  Arg.(
    value & opt non_negative_int 0
    & info [ "networks" ] ~docv:"F" ~doc:"Flow networks in the fleet (f0..).")

let net_vertices_arg =
  Arg.(value & opt positive_int 8 & info [ "net-vertices" ] ~docv:"N" ~doc:"Vertices per flow network.")

let fleet_term =
  let make seed graphs vertices family networks net_vertices =
    {
      Fleet.seed;
      graphs;
      vertices;
      family;
      w_max = 8;
      networks;
      net_vertices;
    }
  in
  Term.(
    const make $ seed_arg $ graphs_arg $ vertices_arg $ family_arg
    $ networks_arg $ net_vertices_arg)

let max_queue_arg =
  Arg.(value & opt positive_int 256 & info [ "max-queue" ] ~docv:"Q" ~doc:"Admission bound.")

let max_batch_arg =
  Arg.(
    value & opt positive_int 16
    & info [ "max-batch" ] ~docv:"B"
        ~doc:"Coalescing cap per batch (1: serial dispatch, the baseline mode).")

let window_arg =
  Arg.(
    value & opt non_negative_int 4
    & info [ "window" ] ~docv:"W"
        ~doc:"Batching window in completed batches (0 dispatches immediately).")

let cache_arg =
  Arg.(
    value & opt non_negative_int 8
    & info [ "cache-capacity" ] ~docv:"C"
        ~doc:
          "Prepared-handle cache capacity (above 0: the fleet is prepared at \
           startup; 0: every batch and update re-prepares its graph).")

let daemon_cfg_term =
  let make fleet_seed max_queue max_batch window cache_capacity =
    {
      Daemon.sched = { Sched.max_queue; max_batch; window };
      seed = fleet_seed;
      cache_capacity;
    }
  in
  Term.(
    const make $ seed_arg $ max_queue_arg $ max_batch_arg $ window_arg
    $ cache_arg)

(* A fleet size the graph or network generator rejects is bad input, not a
   crash. *)
let build_fleet cfg =
  try Fleet.build cfg
  with Invalid_argument msg ->
    Printf.eprintf "lbcc-serve: %s\n" msg;
    Stdlib.exit 2

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let run_serve endpoint fleet_cfg daemon_cfg stats_out =
  let fleet = build_fleet fleet_cfg in
  let daemon = Daemon.create daemon_cfg fleet in
  let listen_fd = Server.bind_listen endpoint in
  Printf.printf "lbcc-serve: listening on %s (%d graphs, %d networks, %s)\n%!"
    (Server.endpoint_to_string endpoint)
    (List.length fleet.Fleet.entries)
    (List.length fleet.Fleet.nets)
    (if daemon_cfg.Daemon.sched.Sched.max_batch > 1 then "coalescing"
     else "serial");
  Server.run daemon listen_fd;
  let stats = Json.to_string ~pretty:true (Daemon.stats_json daemon) in
  (match stats_out with
  | Some path ->
      let oc = open_out path in
      output_string oc stats;
      output_char oc '\n';
      close_out oc;
      Printf.printf "lbcc-serve: drained (%d served); stats -> %s\n%!"
        (Daemon.served daemon) path
  | None ->
      Printf.printf "lbcc-serve: drained (%d served)\n%s\n%!"
        (Daemon.served daemon) stats);
  `Ok ()

let serve_cmd =
  let stats_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-out" ] ~docv:"FILE"
          ~doc:"Write the final stats snapshot to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the coalescing solver daemon until SIGTERM/SIGINT.")
    Term.(
      ret (const run_serve $ socket_arg $ fleet_term $ daemon_cfg_term $ stats_out))

(* ------------------------------------------------------------------ *)
(* client                                                              *)

let describe_response = function
  | Proto.Solution { solution; residual; iterations; rounds; bits } ->
      Printf.printf
        "solution: n=%d residual=%.3e iterations=%d rounds=%d bits=%d\n"
        (Array.length solution) residual iterations rounds bits;
      `Ok ()
  | Proto.Resistance_r { resistance; rounds; bits } ->
      Printf.printf "resistance: %.12g (rounds=%d bits=%d)\n" resistance rounds
        bits;
      `Ok ()
  | Proto.Flow_r { flow; value; cost; rounds; bits } ->
      Printf.printf "flow: edges=%d value=%d cost=%d rounds=%d bits=%d\n"
        (Array.length flow) value cost rounds bits;
      `Ok ()
  | Proto.Update_r { n; m; fingerprint; rounds; bits } ->
      Printf.printf "updated: n=%d m=%d fingerprint=%s rounds=%d bits=%d\n" n m
        fingerprint rounds bits;
      `Ok ()
  | Proto.Json_r body ->
      print_string body;
      print_newline ();
      `Ok ()
  | Proto.Ok_r ->
      print_endline "ok";
      `Ok ()
  | Proto.Error_r { code; message } ->
      Printf.eprintf "lbcc-serve: daemon error (%s): %s\n"
        (match code with
        | Proto.Overloaded -> "overloaded"
        | Proto.Bad_request -> "bad-request"
        | Proto.Internal -> "internal")
        message;
      Stdlib.exit (match code with Proto.Bad_request -> 2 | _ -> 3)

(* The info reply lists {"name":"g0","n":48,"m":...} per graph; returns
   the named graph's (n, m). *)
let graph_size_from_info info name =
  let named g =
    match Json.member "name" g with
    | Some (Json.String s) -> String.equal s name
    | _ -> false
  in
  match Json.member "graphs" (Json.of_string info) with
  | Some (Json.Arr graphs) when List.exists named graphs ->
      let g = List.find named graphs in
      (int_field g "n", int_field g "m")
  | _ ->
      Printf.eprintf "lbcc-serve: daemon has no graph %S\n" name;
      Stdlib.exit 2

(* Delta-op parsers for the client's explicit flags. *)
let parse_insert s =
  match String.split_on_char ':' s with
  | [ u; v; w ] -> (
      match (int_of_string_opt u, int_of_string_opt v, float_of_string_opt w)
      with
      | Some u, Some v, Some w -> Graph.Delta.Insert { Graph.u; v; w }
      | _ -> failwith ("lbcc-serve: bad --insert " ^ s ^ " (want U:V:W)"))
  | _ -> failwith ("lbcc-serve: bad --insert " ^ s ^ " (want U:V:W)")

let parse_reweight s =
  match String.split_on_char ':' s with
  | [ id; w ] -> (
      match (int_of_string_opt id, float_of_string_opt w) with
      | Some id, Some w -> Graph.Delta.Reweight (id, w)
      | _ -> failwith ("lbcc-serve: bad --reweight " ^ s ^ " (want ID:W)"))
  | _ -> failwith ("lbcc-serve: bad --reweight " ^ s ^ " (want ID:W)")

(* Seeded random ops against a graph known only by its (n, m) from Info:
   mostly inserts and reweights, deletes kept rare so a random stream is
   unlikely to disconnect a sparse fleet graph. *)
let random_ops ~seed ~n ~m k =
  let prng = Prng.create seed in
  List.init k (fun _ ->
      match Prng.int prng 4 with
      | 0 | 1 ->
          let u = Prng.int prng n in
          let v =
            let v = Prng.int prng (n - 1) in
            if v >= u then v + 1 else v
          in
          Graph.Delta.Insert { Graph.u; v; w = float_of_int (1 + Prng.int prng 8) }
      | 2 when m > 0 ->
          Graph.Delta.Reweight (Prng.int prng m, float_of_int (1 + Prng.int prng 8))
      | _ when m > 0 -> Graph.Delta.Delete (Prng.int prng m)
      | _ ->
          let u = Prng.int prng n in
          let v =
            let v = Prng.int prng (n - 1) in
            if v >= u then v + 1 else v
          in
          Graph.Delta.Insert { Graph.u; v; w = float_of_int (1 + Prng.int prng 8) })

let run_client endpoint op graph net rhs_seed eps s t inserts deletes reweights
    random =
  let c = conn_open endpoint in
  Fun.protect
    ~finally:(fun () -> conn_close c)
    (fun () ->
      match op with
      | "stats" -> describe_response (snd (rpc c ~id:1 Proto.Stats))
      | "info" -> describe_response (snd (rpc c ~id:1 Proto.Info))
      | "shutdown" -> describe_response (snd (rpc c ~id:1 Proto.Shutdown))
      | "solve" ->
          let n =
            match rpc c ~id:1 Proto.Info with
            | _, Proto.Json_r body -> fst (graph_size_from_info body graph)
            | _ -> failwith "lbcc-serve: unexpected info reply"
          in
          let b = Workload.rhs ~n ~op_seed:rhs_seed in
          describe_response
            (snd (rpc c ~id:2 (Proto.Solve { name = graph; eps; b })))
      | "resistance" ->
          describe_response
            (snd (rpc c ~id:1 (Proto.Resistance { name = graph; eps; s; t })))
      | "flow" -> describe_response (snd (rpc c ~id:1 (Proto.Flow { name = net })))
      | "update" ->
          let explicit =
            List.map parse_insert inserts
            @ List.map (fun id -> Graph.Delta.Delete id) deletes
            @ List.map parse_reweight reweights
          in
          let randomized =
            if random <= 0 then []
            else begin
              (* Size the random ops against the daemon's current view of
                 the graph. *)
              let info =
                match rpc c ~id:1 Proto.Info with
                | _, Proto.Json_r body -> body
                | _ -> failwith "lbcc-serve: unexpected info reply"
              in
              let n, m = graph_size_from_info info graph in
              random_ops ~seed:rhs_seed ~n ~m random
            end
          in
          let delta = Graph.Delta.of_ops (explicit @ randomized) in
          if Graph.Delta.is_empty delta then begin
            Printf.eprintf
              "lbcc-serve: empty delta (pass --insert/--delete/--reweight or \
               --random)\n";
            Stdlib.exit 2
          end;
          describe_response
            (snd (rpc c ~id:2 (Proto.Update { name = graph; delta })))
      | other -> `Error (true, "unknown operation " ^ other))

let client_cmd =
  let op =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP"
          ~doc:"stats, info, shutdown, solve, resistance, flow or update.")
  in
  let graph =
    Arg.(value & opt string "g0" & info [ "graph" ] ~docv:"NAME" ~doc:"Fleet graph name.")
  in
  let net =
    Arg.(value & opt string "f0" & info [ "net" ] ~docv:"NAME" ~doc:"Fleet network name.")
  in
  let rhs_seed =
    Arg.(value & opt int 7 & info [ "rhs-seed" ] ~docv:"SEED" ~doc:"Right-hand-side seed.")
  in
  let eps =
    Arg.(value & opt float solve_eps & info [ "eps" ] ~docv:"EPS" ~doc:"Solve accuracy.")
  in
  let s_arg = Arg.(value & opt int 0 & info [ "s" ] ~docv:"S" ~doc:"Source vertex.") in
  let t_arg = Arg.(value & opt int 1 & info [ "t" ] ~docv:"T" ~doc:"Target vertex.") in
  let inserts =
    Arg.(
      value & opt_all string []
      & info [ "insert" ] ~docv:"U:V:W"
          ~doc:"Insert an edge (repeatable; update op only).")
  in
  let deletes =
    Arg.(
      value & opt_all int []
      & info [ "delete" ] ~docv:"ID"
          ~doc:"Delete the edge with this id (repeatable; update op only).")
  in
  let reweights =
    Arg.(
      value & opt_all string []
      & info [ "reweight" ] ~docv:"ID:W"
          ~doc:"Reweight the edge with this id (repeatable; update op only).")
  in
  let random =
    Arg.(
      value & opt int 0
      & info [ "random" ] ~docv:"K"
          ~doc:
            "Append K seeded random delta ops sized from the daemon's Info \
             reply (update op only; seeded by --rhs-seed).")
  in
  Cmd.v
    (Cmd.info "client" ~doc:"Send one request to a running daemon.")
    Term.(
      ret
        (const run_client $ socket_arg $ op $ graph $ net $ rhs_seed $ eps
       $ s_arg $ t_arg $ inserts $ deletes $ reweights $ random))

(* ------------------------------------------------------------------ *)
(* bench: fork daemons, replay the zipf trace, write BENCH_SERVE.json   *)

let req_of_op fleet op =
  let entry i = List.nth fleet.Fleet.entries i in
  match op with
  | Workload.Solve_op { graph; op_seed } ->
      let e = entry graph in
      let n = Graph.n e.Fleet.graph in
      Proto.Solve { name = e.Fleet.name; eps = solve_eps; b = Workload.rhs ~n ~op_seed }
  | Workload.Resistance_op { graph; op_seed } ->
      let e = entry graph in
      let n = Graph.n e.Fleet.graph in
      let s, t = Workload.st_pair ~n ~op_seed in
      Proto.Resistance { name = e.Fleet.name; eps = resist_eps; s; t }
  | Workload.Flow_op { net } ->
      Proto.Flow { name = (List.nth fleet.Fleet.nets net).Fleet.net_name }

(* Fork a daemon child for [endpoint].  The parent binds the listening
   socket first, so clients can connect (into the backlog) before the child
   reaches its accept loop — no readiness handshake needed. *)
let fork_daemon daemon_cfg fleet_cfg endpoint =
  let listen_fd = Server.bind_listen endpoint in
  match Unix.fork () with
  | 0 ->
      let code =
        try
          let fleet = Fleet.build fleet_cfg in
          let daemon = Daemon.create daemon_cfg fleet in
          Server.run daemon listen_fd;
          0
        with e ->
          Printf.eprintf "lbcc-serve[daemon]: %s\n%!" (Printexc.to_string e);
          3
      in
      Stdlib.exit code
  | pid ->
      Unix.close listen_fd;
      pid

type phase_client = {
  pc_fd : Unix.file_descr;
  pc_reader : Proto.Reader.t;
  pc_ops : (int * Proto.request) array;
  mutable pc_sent : int;
  mutable pc_recv : int;
  mutable pc_inflight : int;
}

type phase_result = {
  responses : Proto.response option array;
  latencies : float array;  (* per request id, seconds *)
  wall_s : float;
  stats : Json.t;  (* the daemon's final stats reply *)
}

(* Replay [reqs] (per-client arrays of (global id, request)) against the
   daemon at [endpoint] with at most [inflight] outstanding requests per
   client (closed loop), then fetch stats and shut the daemon down. *)
let run_phase ~endpoint ~reqs ~inflight ~deadline_s =
  let total = Array.fold_left (fun a ops -> a + Array.length ops) 0 reqs in
  let responses = Array.make total None in
  let t_send = Array.make total 0.0 in
  let latencies = Array.make total 0.0 in
  let clients =
    Array.map
      (fun ops ->
        {
          pc_fd = Server.connect endpoint;
          pc_reader = Proto.Reader.create ();
          pc_ops = ops;
          pc_sent = 0;
          pc_recv = 0;
          pc_inflight = 0;
        })
      reqs
  in
  let send_ready c =
    while c.pc_inflight < inflight && c.pc_sent < Array.length c.pc_ops do
      let id, req = c.pc_ops.(c.pc_sent) in
      t_send.(id) <- Clock.now_s ();
      write_all c.pc_fd (Proto.encode_request ~id req);
      c.pc_sent <- c.pc_sent + 1;
      c.pc_inflight <- c.pc_inflight + 1
    done
  in
  let scratch = Bytes.create 65536 in
  let t0 = Clock.now_s () in
  let deadline = t0 +. deadline_s in
  Array.iter send_ready clients;
  let unfinished () =
    Array.exists (fun c -> c.pc_recv < Array.length c.pc_ops) clients
  in
  while unfinished () do
    if Clock.now_s () > deadline then
      failwith "lbcc-serve: bench phase deadline exceeded";
    let waiting =
      Array.to_list clients
      |> List.filter (fun c -> c.pc_recv < Array.length c.pc_ops)
    in
    let ready, _, _ =
      match Unix.select (List.map (fun c -> c.pc_fd) waiting) [] [] 1.0 with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun c ->
        if List.memq c.pc_fd ready then begin
          let k = Unix.read c.pc_fd scratch 0 (Bytes.length scratch) in
          if k = 0 then failwith "lbcc-serve: daemon closed a bench connection";
          Proto.Reader.feed c.pc_reader scratch k;
          let rec pump () =
            match Proto.Reader.next c.pc_reader with
            | None -> ()
            | Some payload ->
                let id, resp = Proto.decode_response payload in
                responses.(id) <- Some resp;
                latencies.(id) <- Clock.now_s () -. t_send.(id);
                c.pc_recv <- c.pc_recv + 1;
                c.pc_inflight <- c.pc_inflight - 1;
                pump ()
          in
          pump ();
          send_ready c
        end)
      waiting
  done;
  let wall_s = Clock.now_s () -. t0 in
  Array.iter (fun c -> try Unix.close c.pc_fd with Unix.Unix_error _ -> ()) clients;
  let ctl = conn_open endpoint in
  let stats =
    match rpc ctl ~id:0 Proto.Stats with
    | _, Proto.Json_r body -> Json.of_string body
    | _ -> failwith "lbcc-serve: unexpected stats reply"
  in
  (match rpc ctl ~id:0 Proto.Shutdown with
  | _, Proto.Ok_r -> ()
  | _ -> failwith "lbcc-serve: unexpected shutdown reply");
  conn_close ctl;
  { responses; latencies; wall_s; stats }

let exact_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx =
      Stdlib.min (n - 1)
        (int_of_float (Float.of_int n *. q) |> Stdlib.max 0)
    in
    sorted.(idx)

(* Recompute every traced operation in-process (same seed, same fleet) and
   render it as the wire response the daemon should have produced: the
   identity check is then plain [Bytes.equal] on encoded frames. *)
let direct_responses fleet seed ops =
  let ctx = Ctx.make ~seed () in
  let handles =
    List.map
      (fun (e : Fleet.entry) -> (e.Fleet.name, Prepared.create ~ctx e.Fleet.graph))
      fleet.Fleet.entries
  in
  let handle name = List.assoc name handles in
  Array.map
    (fun op ->
      match op with
      | Workload.Solve_op { graph; op_seed } ->
          let e = List.nth fleet.Fleet.entries graph in
          let n = Graph.n e.Fleet.graph in
          let q =
            Prepared.solve ~eps:solve_eps (handle e.Fleet.name)
              ~b:(Workload.rhs ~n ~op_seed)
          in
          Proto.Solution
            {
              solution = q.Prepared.solution;
              residual = q.Prepared.residual;
              iterations = q.Prepared.iterations;
              rounds = q.Prepared.rounds;
              bits = q.Prepared.bits;
            }
      | Workload.Resistance_op { graph; op_seed } ->
          let e = List.nth fleet.Fleet.entries graph in
          let n = Graph.n e.Fleet.graph in
          let s, t = Workload.st_pair ~n ~op_seed in
          let resistance, q =
            Prepared.effective_resistance (handle e.Fleet.name) ~s ~t
          in
          Proto.Resistance_r
            { resistance; rounds = q.Prepared.rounds; bits = q.Prepared.bits }
      | Workload.Flow_op { net } ->
          let ne = List.nth fleet.Fleet.nets net in
          let r = Lbcc.min_cost_max_flow ~ctx ne.Fleet.net in
          Proto.Flow_r
            {
              flow = r.Lbcc.flow;
              value = r.Lbcc.value;
              cost = r.Lbcc.cost;
              rounds = r.Lbcc.rounds.Lbcc.total;
              bits = r.Lbcc.rounds.Lbcc.bits;
            })
    ops

let run_bench out endpoint_base fleet_cfg wl_cfg inflight min_amort min_speedup
    max_p99 =
  let wl_cfg =
    { wl_cfg with Workload.graphs = fleet_cfg.Fleet.graphs;
      networks = fleet_cfg.Fleet.networks }
  in
  let fleet = build_fleet fleet_cfg in
  let trace = Workload.trace wl_cfg in
  let flat_ops = Array.concat (Array.to_list trace) in
  let total = Array.length flat_ops in
  (* global id = position in client-major order *)
  let reqs =
    let next = ref 0 in
    Array.map
      (Array.map (fun op ->
           let id = !next in
           incr next;
           (id, req_of_op fleet op)))
      trace
  in
  let ep tag =
    match endpoint_base with
    | Server.Unix_sock path -> Server.Unix_sock (path ^ "." ^ tag)
    | Server.Tcp (host, port) ->
        Server.Tcp
          (host, port + match tag with "a" -> 0 | "b" -> 1 | _ -> 2)
  in
  let sched_coalesced =
    { Sched.default_config with Sched.max_queue = Stdlib.max 256 total }
  in
  let overload_queue = Stdlib.max 1 (total / 2) in
  (* All forks happen before the parent touches the worker pool (the
     direct-solve identity check below): forking after domains exist is
     not safe in OCaml 5. *)
  let pid_a =
    fork_daemon
      { Daemon.sched = sched_coalesced; seed = fleet_cfg.Fleet.seed;
        cache_capacity = 8 }
      fleet_cfg (ep "a")
  in
  let pid_b =
    fork_daemon
      { Daemon.sched =
          { sched_coalesced with Sched.max_batch = 1; window = 0 };
        seed = fleet_cfg.Fleet.seed; cache_capacity = 0 }
      fleet_cfg (ep "b")
  in
  let pid_c =
    fork_daemon
      { Daemon.sched = { Sched.default_config with Sched.max_queue = overload_queue };
        seed = fleet_cfg.Fleet.seed; cache_capacity = 8 }
      fleet_cfg (ep "c")
  in
  let reap pid = ignore (Unix.waitpid [] pid : int * Unix.process_status) in
  Printf.printf
    "SERVE: %d requests (%d clients x %d), %d graphs n=%d, zipf %.2f\n%!" total
    wl_cfg.Workload.clients wl_cfg.Workload.per_client fleet_cfg.Fleet.graphs
    fleet_cfg.Fleet.vertices wl_cfg.Workload.zipf_s;
  let deadline_s = 600.0 in
  (* Phase A: the coalescing daemon under the closed-loop zipf load. *)
  let a = run_phase ~endpoint:(ep "a") ~reqs ~inflight ~deadline_s in
  reap pid_a;
  let rounds_a = int_field a.stats "rounds" in
  let served_a = int_field a.stats "served" in
  let batches_a = int_field a.stats "batches" in
  let cache_a =
    match Json.member "cache" a.stats with
    | Some c -> c
    | None -> failwith "lbcc-serve: no \"cache\" field in reply"
  in
  let hits_a = int_field cache_a "hits" and misses_a = int_field cache_a "misses" in
  Printf.printf
    "  coalesced: %.3fs wall, %d rounds, %d batches (%.1f req/batch), cache \
     %d/%d hits\n%!"
    a.wall_s rounds_a batches_a
    (float_of_int served_a /. float_of_int (Stdlib.max 1 batches_a))
    hits_a (hits_a + misses_a);
  (* Phase B: serial dispatch, no handle reuse — preprocessing per request. *)
  let b = run_phase ~endpoint:(ep "b") ~reqs ~inflight ~deadline_s in
  reap pid_b;
  let rounds_b = int_field b.stats "rounds" in
  let served_b = int_field b.stats "served" in
  Printf.printf "  serial:    %.3fs wall, %d rounds\n%!" b.wall_s rounds_b;
  (* Phase C: 2x overload against a daemon whose queue holds half the
     offered load; every request must still get an explicit answer. *)
  let c =
    run_phase ~endpoint:(ep "c") ~reqs ~inflight:(Stdlib.max 1 total)
      ~deadline_s
  in
  reap pid_c;
  let rejected_c = int_field c.stats "rejected" in
  let admitted_c = int_field c.stats "admitted" in
  let answered_c =
    Array.fold_left
      (fun acc r -> match r with Some _ -> acc + 1 | None -> acc)
      0 c.responses
  in
  let rejected_seen_c =
    Array.fold_left
      (fun acc r ->
        match r with
        | Some (Proto.Error_r { code = Proto.Overloaded; _ }) -> acc + 1
        | _ -> acc)
      0 c.responses
  in
  Printf.printf
    "  overload:  queue %d vs %d offered -> %d admitted, %d rejected, %d \
     answered\n%!"
    overload_queue total admitted_c rejected_c answered_c;
  (* Identity: daemon responses (batched AND serial) must match the direct
     in-process computation bit-for-bit. *)
  let direct = direct_responses fleet fleet_cfg.Fleet.seed flat_ops in
  let matched = ref 0 in
  Array.iteri
    (fun id d ->
      match (a.responses.(id), b.responses.(id)) with
      | Some ra, Some rb ->
          let enc r = Proto.encode_response ~id:0 r in
          if Bytes.equal (enc ra) (enc d) && Bytes.equal (enc rb) (enc d) then
            incr matched
      | _ -> ())
    direct;
  let identity = float_of_int !matched /. float_of_int total in
  Printf.printf "  identity:  %d/%d responses bit-identical (batched = serial = direct)\n%!"
    !matched total;
  let lat_sorted = Array.copy a.latencies in
  Array.sort Float.compare lat_sorted;
  let p50 = exact_quantile lat_sorted 0.50 in
  let p99 = exact_quantile lat_sorted 0.99 in
  let rpr_a = float_of_int rounds_a /. float_of_int (Stdlib.max 1 served_a) in
  let rpr_b = float_of_int rounds_b /. float_of_int (Stdlib.max 1 served_b) in
  let amortization = rpr_b /. rpr_a in
  let wall_speedup = b.wall_s /. a.wall_s in
  Printf.printf
    "  rounds/request: serial %.1f vs coalesced %.1f (%.1fx); wall speedup \
     %.1fx; p50 %.3fs p99 %.3fs\n%!"
    rpr_b rpr_a amortization wall_speedup p50 p99;
  let cl ?direction name measured bound =
    Report.claim ?direction ~name ~measured ~bound ()
  in
  let claims =
    [
      cl ~direction:Report.Ge
        "coalesced model throughput vs serial dispatch (rounds/request ratio)"
        amortization min_amort;
      cl ~direction:Report.Ge
        (Printf.sprintf "coalesced wall-clock throughput vs serial at concurrency %d"
           wl_cfg.Workload.clients)
        wall_speedup min_speedup;
      cl "client-observed p99 latency (s), coalesced" p99 max_p99;
      cl ~direction:Report.Ge
        "responses bit-identical: batched = serial = direct" identity 1.0;
      cl ~direction:Report.Ge "overload at 2x queue budget: explicit rejections"
        (float_of_int rejected_c) 1.0;
      cl ~direction:Report.Ge "overload: every offered request answered"
        (float_of_int answered_c /. float_of_int total)
        1.0;
      cl ~direction:Report.Ge "prepared-handle cache hit rate under zipf load"
        (float_of_int hits_a /. float_of_int (Stdlib.max 1 (hits_a + misses_a)))
        0.5;
    ]
  in
  let report =
    {
      Report.experiment = "SERVE";
      title = "solver daemon: coalescing throughput, tail latency, admission";
      claims;
      phases = [];
      extra =
        [
          ("requests", Json.Int total);
          ("clients", Json.Int wl_cfg.Workload.clients);
          ("per_client", Json.Int wl_cfg.Workload.per_client);
          ("inflight", Json.Int inflight);
          ("graphs", Json.Int fleet_cfg.Fleet.graphs);
          ("vertices", Json.Int fleet_cfg.Fleet.vertices);
          ("zipf_s", Json.Float wl_cfg.Workload.zipf_s);
          ( "coalesced",
            Json.Obj
              [
                ("wall_s", Json.Float a.wall_s);
                ("rounds", Json.Int rounds_a);
                ("batches", Json.Int batches_a);
                ("rounds_per_request", Json.Float rpr_a);
                ("p50_latency_s", Json.Float p50);
                ("p99_latency_s", Json.Float p99);
                ("cache_hits", Json.Int hits_a);
                ("cache_misses", Json.Int misses_a);
              ] );
          ( "serial",
            Json.Obj
              [
                ("wall_s", Json.Float b.wall_s);
                ("rounds", Json.Int rounds_b);
                ("rounds_per_request", Json.Float rpr_b);
              ] );
          ( "overload",
            Json.Obj
              [
                ("max_queue", Json.Int overload_queue);
                ("offered", Json.Int total);
                ("admitted", Json.Int admitted_c);
                ("rejected", Json.Int rejected_c);
                ("rejections_seen_by_clients", Json.Int rejected_seen_c);
                ("answered", Json.Int answered_c);
              ] );
        ];
    }
  in
  let path = Report.write ~dir:out report in
  let ok = List.for_all Report.within claims in
  Printf.printf "report -> %s (within_bound=%b)\n%!" path ok;
  if not ok then Stdlib.exit 1;
  `Ok ()

let bench_cmd =
  let out =
    Arg.(
      value & opt string "_bench_reports"
      & info [ "out" ] ~docv:"DIR" ~doc:"Report directory.")
  in
  let clients =
    Arg.(value & opt positive_int 16 & info [ "clients" ] ~docv:"K" ~doc:"Concurrent clients.")
  in
  let per_client =
    Arg.(value & opt positive_int 4 & info [ "per-client" ] ~docv:"R" ~doc:"Requests per client.")
  in
  let zipf =
    Arg.(value & opt float 1.0 & info [ "zipf" ] ~docv:"S" ~doc:"Zipf exponent.")
  in
  let resistance_frac =
    Arg.(
      value & opt probability 0.25
      & info [ "resistance-frac" ] ~docv:"P" ~doc:"Fraction of resistance queries.")
  in
  let flows =
    Arg.(value & opt non_negative_int 2 & info [ "flows" ] ~docv:"F" ~doc:"Total flow requests.")
  in
  let inflight =
    Arg.(
      value & opt positive_int 4
      & info [ "inflight" ] ~docv:"I" ~doc:"Outstanding requests per client.")
  in
  let min_amort =
    Arg.(
      value & opt float 4.0
      & info [ "min-amortization" ] ~docv:"X"
          ~doc:"Claim bound: coalesced/serial rounds-per-request ratio.")
  in
  let min_speedup =
    Arg.(
      value & opt float 2.0
      & info [ "min-speedup" ] ~docv:"X" ~doc:"Claim bound: wall-clock throughput ratio.")
  in
  let max_p99 =
    Arg.(
      value & opt float 2.0
      & info [ "max-p99" ] ~docv:"S" ~doc:"Claim bound: p99 latency (seconds).")
  in
  let wl_term =
    let make seed clients per_client zipf_s resistance_frac flows networks =
      {
        Workload.seed;
        clients;
        per_client;
        graphs = 1 (* overwritten from the fleet config *);
        zipf_s;
        resistance_frac;
        flows = (if networks > 0 then flows else 0);
        networks;
      }
    in
    Term.(
      const make $ seed_arg $ clients $ per_client $ zipf $ resistance_frac
      $ flows $ networks_arg)
  in
  let base_endpoint =
    Arg.(
      value
      & opt endpoint_conv (Server.Unix_sock "/tmp/lbcc-serve-bench.sock")
      & info [ "socket" ] ~docv:"ENDPOINT"
          ~doc:
            "Base endpoint; the three phase daemons use suffixed sockets \
             (or consecutive TCP ports).")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Fork daemons, replay a seeded zipf load, and write the \
          BENCH_SERVE.json throughput/latency/admission report.")
    Term.(
      ret
        (const run_bench $ out $ base_endpoint $ fleet_term $ wl_term
       $ inflight $ min_amort $ min_speedup $ max_p99))

(* ------------------------------------------------------------------ *)

let main_cmd =
  Cmd.group
    (Cmd.info "lbcc-serve" ~version:"dev"
       ~doc:"Coalescing Laplacian-solver daemon (DESIGN.md §11).")
    [ serve_cmd; client_cmd; bench_cmd ]

(* Exit contract: 0 success; 1 SLO claim violation (the exit 1 inside the
   bench); 2 usage; 3 internal error or timeout. *)
let () =
  let code =
    try Cmd.eval ~catch:false main_cmd with
    | Failure msg ->
        Printf.eprintf "lbcc-serve: %s\n" msg;
        125
    | Unix.Unix_error (e, fn, arg) ->
        Printf.eprintf "lbcc-serve: %s(%s): %s\n" fn arg (Unix.error_message e);
        125
    | e ->
        Printf.eprintf "lbcc-serve: internal error: %s\n" (Printexc.to_string e);
        125
  in
  match code with
  | 0 -> Stdlib.exit 0
  | 123 | 124 -> Stdlib.exit 2
  | 125 -> Stdlib.exit 3
  | n -> Stdlib.exit n
