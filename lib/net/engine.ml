module Graph = Lbcc_graph.Graph
module Pool = Lbcc_util.Pool

type 'msg inbox = (int * 'msg) list

type ('state, 'msg) step =
  round:int -> vertex:int -> 'state -> 'msg inbox -> 'state * 'msg option * bool

type stats = {
  supersteps : int;
  rounds : int;
  messages_sent : int;
  total_bits : int;
  converged : bool;
}

exception
  Timeout of { label : string; supersteps : int; rounds : int; phase : string }

type on_timeout = [ `Truncate | `Raise ]

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

(* A fault plan that never fires costs nothing to consult, but skipping it
   entirely keeps the lossless path identical to the historical engine. *)
let active_faults = function
  | Some f when not (Fault.is_lossless f) -> Some f
  | _ -> None

let apply_crashes faults live ~round =
  match faults with
  | None -> ()
  | Some f ->
      Array.iteri
        (fun v alive ->
          if alive && Fault.crashed f ~vertex:v ~round then live.(v) <- false)
        live

(* Vertices are stepped in parallel chunks; a chunk touches only the state,
   outgoing slot and live flag of its own vertices, so any pool size (and
   any chunk schedule) computes the same result.  Keep the chunks coarse:
   a superstep of a small protocol is far cheaper than a dispatch. *)
let step_chunk n = Stdlib.max 16 ((n + 63) / 64)

(* Fault verdicts are replayed at send time, sender-major, in the same
   adjacency order as the historical delivery loop, so stateful budgets
   (adversarial drop quotas) burn in the identical query sequence.  Only
   non-default verdicts are stored, keyed (src, dst) as
   [(copies, tamper_salt)]; the next superstep's gather consumes them. *)
let record_overrides faults overrides ~round ~is_present ~replay_adj ~n =
  match faults with
  | None -> ()
  | Some f ->
      Hashtbl.reset overrides;
      let record ~src ~dst =
        let c = Fault.copies f ~round ~src ~dst in
        let salt = if c = 0 then None else Fault.tamper f ~round ~src ~dst in
        if c <> 1 || Option.is_some salt then
          Hashtbl.replace overrides (src, dst) (c, salt)
      in
      for v = 0 to n - 1 do
        if is_present v then
          match replay_adj with
          | None ->
              for u = 0 to n - 1 do
                if u <> v then record ~src:v ~dst:u
              done
          | Some adj -> Array.iter (fun u -> record ~src:v ~dst:u) adj.(v)
      done

(* The graph's own adjacency order, materialized only under an active fault
   plan (replay must consult deliveries in the historical order, which is
   not the sorted gather order). *)
let replay_adj_of ~model ~graph ~faults =
  match (model.Model.topology, faults) with
  | Model.Input_graph, Some _ ->
      Some
        (Array.init (Graph.n graph) (fun v ->
             Array.of_list (List.map fst (Graph.neighbors graph v))))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let run ?pool ?accountant ?tracer ?(label = "engine")
    ?(max_supersteps = 1_000_000) ?(on_timeout = `Truncate) ?faults
    ?(tamper = fun ~salt:_ msg -> msg) ~model ~graph ~size_bits ~init ~step ()
    =
  Lbcc_obs.Trace.span tracer label @@ fun () ->
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let faults = active_faults faults in
  let n = Graph.n graph in
  (* In-neighbor CSR by counting sort keyed (src, dst): each segment lists a
     receiver's in-neighbors in ascending order, built without intermediate
     per-vertex lists.  Clique receivers stay implicit. *)
  let plan =
    match model.Model.topology with
    | Model.Clique -> None
    | Model.Input_graph -> Some (Plan.plan graph)
  in
  let replay_adj = replay_adj_of ~model ~graph ~faults in
  let states = Array.init n init in
  let live = Array.make n true in
  (* Double-buffered message slots, swapped each superstep: [cur] collects
     this superstep's broadcasts while [prev] holds the ones being
     delivered. *)
  let cur = ref (Array.make n None) and prev = ref (Array.make n None) in
  let overrides : (int * int, int * int option) Hashtbl.t =
    Hashtbl.create 16
  in
  let supersteps = ref 0 and rounds = ref 0 in
  let messages_sent = ref 0 and total_bits = ref 0 in
  let bandwidth = Model.bandwidth ~n in
  let chunk = step_chunk n in
  let any_live () = Array.exists Fun.id live in
  (* Consing while walking senders in descending order yields the inbox in
     ascending sender order with duplicated deliveries adjacent.  Each
     delivery carries the verdict [record_overrides] stored for it, one
     untampered copy by default.  A tampered delivery is rewritten per
     receiver ([tamper] is pure, so applying it inside the parallel step
     phase is schedule-independent). *)
  let gather v =
    let inbox = ref [] in
    let take u =
      match !prev.(u) with
      | None -> ()
      | Some msg -> (
          let verdict =
            if Option.is_none faults then None
            else Hashtbl.find_opt overrides (u, v)
          in
          match verdict with
          | None -> inbox := (u, msg) :: !inbox
          | Some (c, salt) ->
              let msg =
                match salt with None -> msg | Some salt -> tamper ~salt msg
              in
              for _ = 1 to c do
                inbox := (u, msg) :: !inbox
              done)
    in
    (match plan with
    | None ->
        for u = n - 1 downto 0 do
          if u <> v then take u
        done
    | Some p ->
        let lo = p.Plan.off.(v) in
        for i = p.Plan.off.(v + 1) - 1 downto lo do
          take p.Plan.srcs.(i)
        done);
    !inbox
  in
  let round_ref = ref 0 in
  let body lo hi =
    let round = !round_ref in
    let out = !cur in
    for v = lo to hi - 1 do
      if live.(v) then begin
        let inbox = gather v in
        let state', msg, continue = step ~round ~vertex:v states.(v) inbox in
        states.(v) <- state';
        out.(v) <- msg;
        if not continue then live.(v) <- false
      end
    done
  in
  while any_live () && !supersteps < max_supersteps do
    incr supersteps;
    let round = !supersteps in
    round_ref := round;
    apply_crashes faults live ~round;
    Array.fill !cur 0 n None;
    Pool.parallel_for pool ~chunk ~n body;
    let max_bits = ref 0 in
    Array.iter
      (function
        | None -> ()
        | Some m ->
            let bits = size_bits m in
            incr messages_sent;
            total_bits := !total_bits + bits;
            max_bits := Stdlib.max !max_bits bits)
      !cur;
    let sent = !cur in
    record_overrides faults overrides ~round
      ~is_present:(fun v -> Option.is_some sent.(v))
      ~replay_adj ~n;
    cur := !prev;
    prev := sent;
    (* A superstep costs its largest message, [ceil(max_bits / B)] rounds
       and at least one. *)
    let bits = Stdlib.max 1 !max_bits in
    let cost = Stdlib.max 1 (Lbcc_util.Bits.ceil_div bits bandwidth) in
    (match accountant with
    | Some acc -> Rounds.charge acc ~label ~bits ~rounds:cost
    | None -> ());
    rounds := !rounds + cost
  done;
  Lbcc_obs.Trace.add tracer ~rounds:!rounds ~bits:!total_bits
    ~supersteps:!supersteps ~messages:!messages_sent ();
  let converged = not (any_live ()) in
  if (not converged) && on_timeout = `Raise then begin
    let phase =
      match accountant with Some acc -> Rounds.phase_path acc | None -> ""
    in
    raise (Timeout { label; supersteps = !supersteps; rounds = !rounds; phase })
  end;
  ( states,
    {
      supersteps = !supersteps;
      rounds = !rounds;
      messages_sent = !messages_sent;
      total_bits = !total_bits;
      converged;
    } )
