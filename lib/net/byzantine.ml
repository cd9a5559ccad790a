module Graph = Lbcc_graph.Graph
module Tbl = Lbcc_util.Tbl
module Inbox = Engine.Inbox

(* One virtual (inner-protocol) round expands into two cycles of three
   lockstep supersteps: SEND (payloads out, previous cycle's repairs
   in), ECHO (digest votes out, payloads in), REPAIR (served payloads out,
   votes in).  The schedule is a pure function of the global superstep
   index, so every vertex is always in the same (vround, cycle, phase) slot
   and a dropped control packet can cost votes but never desynchronize the
   protocol. *)

type 'msg body =
  | Send of 'msg option
  | Echo of (int * int) list (* (subject, digest), ascending by subject *)
  | Repair of (int * 'msg option) list (* (subject, payload I can vouch for) *)

type 'msg packet = { vround : int; halted : bool; body : 'msg body }

(* Digests live in [0, 2^30); a forged echo vote lives in [2^30, 2^31) so
   the in-model adversary is maximally disruptive (its common lie never
   accidentally matches an honest digest). *)
let digest (m : _ option) = Hashtbl.hash m land 0x3FFFFFFF

let forged_digest ~vround ~subject =
  0x40000000 lor (Hashtbl.hash (vround * 65_599 + subject) land 0x3FFFFFFF)

type ('state, 'msg) vertex = {
  id : int;
  nbrs : int array;
      (* The protocol is clique-only, so every vertex shares ONE [0..n-1]
         array and the iteration helpers skip [id] on the fly — n explicit
         (n-1)-element lists were an O(n^2) setup cost. *)
  inner_inbox : 'msg Inbox.t; (* refilled before each inner step *)
  mutable inner : 'state;
  mutable inner_live : bool;
  mutable vround : int; (* 0 until the first inner step runs *)
  mutable inner_steps : int; (* actual inner [step] invocations *)
  mutable out : 'msg option; (* inner broadcast for [vround] *)
  mutable zombie : bool; (* inner halted; draining echo duty *)
  (* Current virtual round's delivery state, reset at each advance. *)
  copy : (int, 'msg option) Hashtbl.t; (* subject -> latest/locked payload *)
  locked : (int, unit) Hashtbl.t; (* subject -> copy is weak-quorum backed *)
  accepted : (int, 'msg option) Hashtbl.t; (* subject -> strong-quorum value *)
  ballots : (int, (int, int) Hashtbl.t) Hashtbl.t; (* subject -> echoer -> digest *)
  weak : (int, int) Hashtbl.t; (* subject -> weak-quorum digest *)
  halted_nbrs : (int, unit) Hashtbl.t;
  suspected : (int, unit) Hashtbl.t;
  mutable failures : int; (* (vround, subject) slots that died without quorum *)
  mutable served : int; (* repair entries this vertex broadcast *)
}

let echo_label label = label ^ "/byz-echo"

module Diag = struct
  type t = {
    virtual_supersteps : int;
    echo_rounds : int;
    quorum_failures : int;
    suspected : int list;
    repairs_served : int;
    tolerance_exceeded : bool;
  }

  let ok d = d.quorum_failures = 0 && not d.tolerance_exceeded

  let pp ppf d =
    Format.fprintf ppf
      "@[<h>byz vrounds=%d echo-rounds=%d quorum-failures=%d suspected=%d \
       repairs=%d%s@]"
      d.virtual_supersteps d.echo_rounds d.quorum_failures
      (List.length d.suspected)
      d.repairs_served
      (if d.tolerance_exceeded then " TOLERANCE-EXCEEDED" else "")
end

type 'state result = { states : 'state array; stats : Engine.stats; diag : Diag.t }

let packet_bits ~n inner_bits (pkt : _ packet) =
  let open Payload in
  let base = size [ Tag 4; Int pkt.vround; Bitfield 1 ] in
  base
  +
  match pkt.body with
  | Send None -> 0
  | Send (Some m) -> inner_bits m
  | Echo entries ->
      size (List.concat_map (fun (_, _) -> [ Vertex_id n; Bitfield 31 ]) entries)
  | Repair entries ->
      List.fold_left
        (fun acc (_, p) ->
          acc + size [ Vertex_id n ]
          + (match p with None -> 1 | Some m -> 1 + inner_bits m))
        0 entries

(* Deterministic plurality: largest vote count, ties to the smallest
   digest. *)
let plurality ballots =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun (_, d) ->
      Hashtbl.replace tally d
        (1 + match Hashtbl.find_opt tally d with Some c -> c | None -> 0))
    ballots;
  Tbl.sorted_bindings ~compare:Int.compare tally
  |> List.fold_left
       (fun best (d, c) ->
         match best with
         | Some (_, c') when c' >= c -> best
         | _ -> Some (d, c))
       None

(* Cycles per virtual round: the second gives a copy lost or tampered in
   the first its repair window. *)
let cycles = 2

let run ?accountant ?faults ~tamper ~label ~max_supersteps ~model ~graph
    ~size_bits ~init ~step () =
  (match model.Model.topology with
  | Model.Clique -> ()
  | Model.Input_graph ->
      invalid_arg "Byzantine.run: echo quorums need the clique topology");
  let n = Graph.n graph in
  let f_max = Fault.max_tolerated ~n in
  let strong_q = (2 * f_max) + 1 in
  let weak_q = f_max + 1 in
  let period = 3 * cycles in
  (* The in-model worst-case adversary: Byzantine vertices forge every echo
     vote with a digest common across receivers and echoers, which is what
     makes the f < n/3 threshold sharp (see DESIGN.md §9). *)
  let forges v =
    match faults with
    | Some f -> Fault.equivocates f && Fault.is_byzantine f v
    | None -> false
  in
  let all_ids = Array.init n Fun.id in
  let init_vertex v =
    {
      id = v;
      nbrs = all_ids;
      inner_inbox = Inbox.create ();
      inner = init v;
      inner_live = true;
      inner_steps = 0;
      vround = 0;
      out = None;
      zombie = false;
      copy = Hashtbl.create 8;
      locked = Hashtbl.create 8;
      accepted = Hashtbl.create 8;
      ballots = Hashtbl.create 8;
      weak = Hashtbl.create 8;
      halted_nbrs = Hashtbl.create 8;
      suspected = Hashtbl.create 8;
      failures = 0;
      served = 0;
    }
  in
  (* Neighbors still expected to participate: not self, not halted, not
     suspected — iterated in place (ascending id order, as the legacy
     filtered lists were), never materialized. *)
  let is_expected v u =
    u <> v.id
    && (not (Hashtbl.mem v.halted_nbrs u))
    && not (Hashtbl.mem v.suspected u)
  in
  let iter_expected v f =
    Array.iter (fun u -> if is_expected v u then f u) v.nbrs
  in
  let count_expected v =
    Array.fold_left
      (fun acc u -> if is_expected v u then acc + 1 else acc)
      0 v.nbrs
  in
  let any_expected v = Array.exists (is_expected v) v.nbrs in
  let ballot_box v subject =
    match Hashtbl.find_opt v.ballots subject with
    | Some box -> box
    | None ->
        let box = Hashtbl.create 8 in
        Hashtbl.replace v.ballots subject box;
        box
  in
  let cast v ~subject ~echoer d = Hashtbl.replace (ballot_box v subject) echoer d in
  (* Advance the inner protocol one virtual round: deliver the accepted
     inbox, collect the next broadcast, reset the per-round tables. *)
  let advance v =
    if v.inner_live then begin
      let inbox = v.inner_inbox in
      Inbox.clear inbox;
      if v.vround > 0 then
        Tbl.iter_sorted ~compare:Int.compare
          (fun s p -> match p with Some m -> Inbox.push inbox s m | None -> ())
          v.accepted;
      let inner', msg, continue =
        step ~round:(v.vround + 1) ~vertex:v.id v.inner inbox
      in
      v.inner <- inner';
      v.out <- msg;
      v.vround <- v.vround + 1;
      v.inner_steps <- v.inner_steps + 1;
      v.inner_live <- continue
    end
    else begin
      v.zombie <- true;
      v.out <- None;
      v.vround <- v.vround + 1
    end;
    Hashtbl.reset v.copy;
    Hashtbl.reset v.locked;
    Hashtbl.reset v.accepted;
    Hashtbl.reset v.ballots;
    Hashtbl.reset v.weak
  in
  (* End of a virtual round: everything still unaccepted is charged as a
     quorum failure and its subject suspected from now on. *)
  let finalize v =
    iter_expected v (fun s ->
        if not (Hashtbl.mem v.accepted s) then begin
          v.failures <- v.failures + 1;
          Hashtbl.replace v.suspected s ()
        end)
  in
  let ingest_send v (sender, pkt) payload =
    if pkt.halted then Hashtbl.replace v.halted_nbrs sender ()
    else if not (Hashtbl.mem v.locked sender) then
      Hashtbl.replace v.copy sender payload
  in
  let ingest_echo v (sender, entries) =
    List.iter (fun (subject, d) -> cast v ~subject ~echoer:sender d) entries
  in
  let ingest_repair v entries =
    List.iter
      (fun (subject, payload) ->
        match Hashtbl.find_opt v.weak subject with
        | Some wd
          when (not (Hashtbl.mem v.accepted subject))
               && (not (Hashtbl.mem v.suspected subject))
               && digest payload = wd
               && (match Hashtbl.find_opt v.copy subject with
                  | Some c -> digest c <> wd
                  | None -> true) ->
            Hashtbl.replace v.copy subject payload;
            Hashtbl.replace v.locked subject ()
        | _ -> ())
      entries
  in
  let compose_echo v =
    (* Vote on every subject I hold, and on my own broadcast; my own vote
       also lands in my local ballot box so self-held copies count. *)
    let entries =
      Tbl.sorted_bindings ~compare:Int.compare v.copy
      |> List.map (fun (s, p) -> (s, digest p))
    in
    let entries = entries @ [ (v.id, digest v.out) ] in
    let entries = List.sort (fun (a, _) (b, _) -> Int.compare a b) entries in
    List.iter (fun (s, d) -> cast v ~subject:s ~echoer:v.id d) entries;
    if forges v.id then
      List.map (fun (s, _) -> (s, forged_digest ~vround:v.vround ~subject:s)) entries
    else entries
  in
  let tally_and_serve v =
    let serve = ref [] in
    iter_expected v (fun s ->
        let box = Hashtbl.find_opt v.ballots s in
        let ballots =
          match box with
          | None -> []
          | Some box -> Tbl.sorted_bindings ~compare:Int.compare box
        in
        match plurality ballots with
        | None -> ()
        | Some (best, count) ->
            if count >= weak_q then begin
              Hashtbl.replace v.weak s best;
              (match Hashtbl.find_opt v.copy s with
              | Some c when digest c = best ->
                  Hashtbl.replace v.locked s ();
                  if
                    count >= strong_q
                    && not (Hashtbl.mem v.accepted s)
                  then Hashtbl.replace v.accepted s c;
                  (* Serve a repair whenever any echoer disagrees with the
                     backed digest — the dissenting echo is the broadcast
                     model's lazy pull request — or failed to vote at all,
                     which means a drop destroyed its copy. *)
                  let everyone = 1 + count_expected v in
                  if
                    List.exists (fun (_, d) -> d <> best) ballots
                    || List.length ballots < everyone
                  then serve := (s, c) :: !serve
              | _ -> ())
            end);
    let serve = List.rev !serve in
    v.served <- v.served + List.length serve;
    serve
  in
  let wrapper_step ~round ~vertex:_ v inbox =
    let k = (round - 1) mod period in
    let phase = k mod 3 in
    let vround_begins = k = 0 in
    (* Ingest by body kind: under lockstep every packet in the inbox was
       composed in the previous superstep, so its kind identifies its
       phase. *)
    Inbox.iter
      (fun sender pkt ->
        match pkt.body with
        | Send p -> ingest_send v (sender, pkt) p
        | Echo entries -> ingest_echo v (sender, entries)
        | Repair entries -> ingest_repair v entries)
      inbox;
    match phase with
    | 0 ->
        (* SEND: close the previous virtual round (repairs were just
           ingested), open the next one, broadcast its payload. *)
        if vround_begins then begin
          if v.vround > 0 then finalize v;
          advance v
        end;
        if v.zombie then begin
          let everyone_done = not (any_expected v) in
          let pkt = { vround = v.vround; halted = true; body = Send None } in
          (v, Some pkt, not everyone_done)
        end
        else
          (v, Some { vround = v.vround; halted = false; body = Send v.out }, true)
    | 1 ->
        (* ECHO: vote on everything received in the SEND superstep. *)
        let pkt =
          { vround = v.vround; halted = v.zombie; body = Echo (compose_echo v) }
        in
        (v, Some pkt, true)
    | _ ->
        (* REPAIR: tally the votes, accept on strong quorums, serve
           payloads wherever a dissenting echo asked for one. *)
        let serve = tally_and_serve v in
        let pkt =
          { vround = v.vround; halted = v.zombie; body = Repair serve }
        in
        (v, Some pkt, true)
  in
  (* Lift the caller's payload transform to packets.  Channel corruption /
     equivocation perturbs data (Send and Repair payloads); protocol
     control (vround, halted, the echo structure) stays intact — the
     coordinated echo adversary is modeled by [forges] above. *)
  let packet_tamper ~salt pkt =
    let perturb = Option.map (tamper ~salt) in
    match pkt.body with
    | Send p -> { pkt with body = Send (perturb p) }
    | Repair entries ->
        { pkt with body = Repair (List.map (fun (s, p) -> (s, perturb p)) entries) }
    | Echo _ -> pkt
  in
  let vertices, stats =
    Engine.run ?faults ~label ~max_supersteps ~tamper:packet_tamper
      ~model ~graph
      ~size_bits:(packet_bits ~n size_bits)
      ~init:init_vertex ~step:wrapper_step ()
  in
  let virtual_supersteps =
    Array.fold_left (fun m v -> Stdlib.max m v.inner_steps) 0 vertices
  in
  let quorum_failures =
    Array.fold_left (fun acc v -> acc + v.failures) 0 vertices
  in
  let repairs_served = Array.fold_left (fun acc v -> acc + v.served) 0 vertices in
  let echo_rounds =
    Reliable.settle ?accountant ~label ~overhead_label:(echo_label label)
      ~virtual_supersteps stats
  in
  (* [suspected] sets are never cleared, so their union is everyone anyone
     suspected.  Recovering it after the run keeps the step closure free of
     cross-vertex mutation (it runs in parallel). *)
  let suspected =
    List.filter
      (fun u -> Array.exists (fun v -> Hashtbl.mem v.suspected u) vertices)
      (List.init n Fun.id)
  in
  let tolerance_exceeded =
    match faults with
    | Some f -> Fault.byzantine_count f > f_max
    | None -> false
  in
  {
    states = Array.map (fun v -> v.inner) vertices;
    stats;
    diag =
      {
        Diag.virtual_supersteps;
        echo_rounds;
        quorum_failures;
        suspected;
        repairs_served;
        tolerance_exceeded;
      };
  }
