open Lbcc_util
module Graph = Lbcc_graph.Graph
module Paths = Lbcc_graph.Paths
module Rounds = Lbcc_net.Rounds
module Payload = Lbcc_net.Payload
module Model = Lbcc_net.Model

type result = {
  fplus : int list;
  fminus : int list;
  orientation : (int * int) array;
  clusters : int option array;
  rounds : int;
  supersteps : int;
  views_agree : bool;
}

(* Broadcast message kinds.  [Phase_info] announces a vertex's cluster and
   mark bit at the start of a phase; [Join*] is the step-2 announcement;
   [Connect*] the step-3/4 per-cluster announcements. *)
type msg =
  | Phase_info of { cluster : int option; marked : bool }
  | Join of { cluster : int; via : int; w : float }
  | Join_none
  | Connect_ok of { cluster : int; via : int; w : float }
  | Connect_fail of { cluster : int }

let msg_bits ~n = function
  | Phase_info _ -> Payload.size [ Tag 5; Vertex_id n; Bitfield 1 ]
  | Join { w; _ } -> Payload.size [ Tag 5; Vertex_id n; Vertex_id n; Weight w ]
  | Join_none -> Payload.size [ Tag 5 ]
  | Connect_ok { w; _ } -> Payload.size [ Tag 5; Vertex_id n; Vertex_id n; Weight w ]
  | Connect_fail _ -> Payload.size [ Tag 5; Vertex_id n ]

(* The edge state one run of the sparsifier pipeline shares; see the
   interface. *)
type state = {
  graph : Graph.t;
  weight : float array;
  p : float array;
  live : bool array;
  tail : int array;
}

let state ~graph ~p =
  let m = Graph.m graph in
  if Array.length p <> m then invalid_arg "Spanner.run: p has wrong length";
  Array.iter
    (fun pe ->
      if not (pe >= 0.0 && pe <= 1.0) then
        invalid_arg "Spanner.run: probability out of range")
    p;
  if Graph.has_parallel_edges graph then
    invalid_arg "Spanner.run: parallel edges not supported";
  {
    graph;
    weight = Array.map (fun (e : Graph.edge) -> e.w) (Graph.edges graph);
    p = Array.copy p;
    live = Array.make m true;
    tail = Array.make m (-1);
  }

(* Per-vertex local state.  What a vertex knows about an incident edge
   lives in the [sim]'s per-slot arrays: slot [2e] is [e]'s endpoint [u],
   slot [2e + 1] its endpoint [v], so the other endpoint's slot of the same
   edge is [s lxor 1].  The discipline is that [v] writes only its own
   slots and reads only its own slots plus received broadcasts. *)
type vertex = {
  id : int;
  mutable cluster : int option;
  mutable marked : bool;
  mutable w_threshold : float;
  mark_prng : Prng.t;
  connect_prng : Prng.t;
}

(* A vertex's classification of an incident edge. *)
type view = Untried | Accepted | Rejected

type sim = {
  st : state;
  n : int;
  verts : vertex array;
  view : view array;
  nb_cluster : int array; (* neighbour's announced cluster, -1 for none *)
  nb_marked : bool array;
  nb_w : float array; (* neighbour's join weight, neg_infinity until heard *)
  acc : Rounds.t;
  widest : int array;
      (* per stage queue position, the largest message so far; a queue
         holds at most one message per cluster, so at most n *)
  mutable supersteps : int;
  mutable consistent : bool;
}

let edge_of_slot s = s lsr 1

(* [f u s] for every live edge of [v], with [u] the other endpoint and [s]
   [v]'s slot.  Adjacency lists are consed in edge-id order, so skipping
   dead edges yields exactly the list of the subgraph of live edges. *)
let iter_live sim v f =
  List.iter
    (fun (u, e) ->
      if sim.st.live.(e) then
        f u (if (Graph.edge sim.st.graph e).u = v then 2 * e else (2 * e) + 1))
    (Graph.neighbors sim.st.graph v)

(* The first vertex to accept an edge sets its orientation tail, once for
   the whole state. *)
let add_fplus sim ~from_ s =
  match sim.view.(s) with
  | Rejected -> sim.consistent <- false
  | Accepted -> ()
  | Untried ->
      sim.view.(s) <- Accepted;
      let e = edge_of_slot s in
      if sim.st.tail.(e) < 0 then sim.st.tail.(e) <- from_

let add_fminus sim s =
  match sim.view.(s) with
  | Accepted -> sim.consistent <- false
  | Untried | Rejected -> sim.view.(s) <- Rejected

(* Effective existence probability of an edge from its slot owner's point
   of view: accepted edges exist with certainty; rejected edges are never
   candidates; untried edges carry their survival probability. *)
let p_eff sim s =
  if sim.view.(s) = Accepted then 1.0 else sim.st.p.(edge_of_slot s)

(* The paper's Connect(N, p): try candidates ascending by (weight, id of the
   other endpoint); the first accepted candidate wins, all earlier ones are
   rejected.  Candidates are given as (other endpoint, own slot). *)
let connect sim vx candidates =
  let weighted =
    List.map (fun (u, s) -> (sim.st.weight.(edge_of_slot s), u, s)) candidates
  in
  let compare_cand (w1, u1, s1) (w2, u2, s2) =
    let c = Float.compare w1 w2 in
    if c <> 0 then c
    else
      let c = Int.compare u1 u2 in
      if c <> 0 then c else Int.compare s1 s2
  in
  let sorted = List.sort compare_cand weighted in
  let rec go = function
    | [] -> None
    | (w, u, s) :: rest ->
        if Prng.float vx.connect_prng < p_eff sim s then begin
          add_fplus sim ~from_:vx.id s;
          Some (u, s, w)
        end
        else begin
          add_fminus sim s;
          go rest
        end
  in
  go sorted

(* ------------------------------------------------------------------ *)
(* The stage driver                                                    *)

(* [List.iter] here would build a closure per live edge per stage. *)
let rec deliver receive ~receiver ~sender ~slot = function
  | [] -> ()
  | m :: rest ->
      receive ~receiver ~sender ~slot m;
      deliver receive ~receiver ~sender ~slot rest

(* One stage: [messages vx] is the queue of broadcasts [vx] sends in the
   stage, asked of every vertex in id order before anything is
   delivered.  Queue position [j] goes out in the stage's [j]-th
   superstep, which costs the largest [j]-th message.  [receive] gets the
   receiver's slot of the edge a message came over.

   Delivery is one pass, sender by sender, each sender's whole queue over
   each of its live edges.  That equals delivering superstep by superstep
   because a receiver writes only its own slot of the edge a message came
   over, and within one stage a slot hears at most one message that
   concerns it: the sender's single message for the receiver's cluster
   (in the phase-info and join stages, the sender's only message). *)
let stage sim ~label ~receive messages =
  let queues = Array.map messages sim.verts in
  let positions = ref 0 in
  let rec widen j = function
    | [] -> positions := Stdlib.max !positions j
    | m :: rest ->
        sim.widest.(j) <- Stdlib.max sim.widest.(j) (msg_bits ~n:sim.n m);
        widen (j + 1) rest
  in
  for v = 0 to sim.n - 1 do
    widen 0 queues.(v)
  done;
  for j = 0 to !positions - 1 do
    Rounds.charge_broadcast sim.acc ~label ~bits:sim.widest.(j);
    sim.widest.(j) <- 0
  done;
  sim.supersteps <- sim.supersteps + !positions;
  for v = 0 to sim.n - 1 do
    match queues.(v) with
    | [] -> ()
    | msgs ->
        iter_live sim v (fun u s ->
            deliver receive ~receiver:sim.verts.(u) ~sender:v ~slot:(s lxor 1)
              msgs)
  done

(* ------------------------------------------------------------------ *)
(* Receivers                                                           *)

let receive_phase_info sim ~receiver:_ ~sender:_ ~slot = function
  | Phase_info { cluster; marked } ->
      sim.nb_cluster.(slot) <- Option.value ~default:(-1) cluster;
      sim.nb_marked.(slot) <- marked
  | _ -> ()

(* Step 2 deduction rules.  [receiver] is [u], the message came from [v]
   over the edge of [slot]; [u] reacts only if it could have been in [v]'s
   candidate set: [u] is in a marked cluster and the edge is not already
   deleted. *)
let receive_join sim ~receiver ~sender ~slot msg =
  (match msg with
  | Join { w; _ } -> sim.nb_w.(slot) <- w
  | Join_none -> sim.nb_w.(slot) <- infinity
  | _ -> ());
  let u = receiver in
  let eligible = u.cluster <> None && u.marked && sim.view.(slot) <> Rejected in
  if eligible then begin
    match msg with
    | Join { via; w; _ } ->
        if via = u.id then add_fplus sim ~from_:sender slot
        else begin
          let we = sim.st.weight.(edge_of_slot slot) in
          if w > we || (w = we && via > u.id) then add_fminus sim slot
        end
    | Join_none -> add_fminus sim slot
    | _ -> ()
  end

(* Step 3 / step 4 deduction.  The message names the target cluster; [u]
   reacts if it belongs to that cluster, the edge is not deleted, and the
   edge met the sender's candidate condition ([weight_filter]). *)
let receive_connect sim ~weight_filtered ~receiver ~sender ~slot msg =
  let u = receiver in
  let concerns cluster = u.cluster = Some cluster in
  let we = sim.st.weight.(edge_of_slot slot) in
  let candidate () =
    sim.view.(slot) <> Rejected && ((not weight_filtered) || we < sim.nb_w.(slot))
  in
  match msg with
  | Connect_ok { cluster; via; w } when concerns cluster && candidate () ->
      if via = u.id then add_fplus sim ~from_:sender slot
      else if w > we || (w = we && via > u.id) then add_fminus sim slot
  | Connect_fail { cluster } when concerns cluster && candidate () ->
      add_fminus sim slot
  | Connect_ok _ | Connect_fail _ | Phase_info _ | Join _ | Join_none -> ()

(* ------------------------------------------------------------------ *)
(* The algorithm                                                       *)

(* Live, undeleted incident edges of [v] whose other endpoint's cluster
   satisfies [select], grouped by that cluster in ascending cluster order.
   Connect sorts each group itself, so only the group order matters. *)
let candidates_by_cluster sim vx ~select =
  let found = ref [] in
  iter_live sim vx.id (fun u s ->
      let x = sim.nb_cluster.(s) in
      if sim.view.(s) <> Rejected && x >= 0 && select ~cluster:x ~slot:s then
        found := (x, (u, s)) :: !found);
  List.fold_right
    (fun (x, c) groups ->
      match groups with
      | (x', members) :: rest when x' = x -> (x, c :: members) :: rest
      | _ -> (x, [ c ]) :: groups)
    (List.stable_sort (fun (x1, _) (x2, _) -> Int.compare x1 x2) !found)
    []

(* Whether [cluster] is below [vx]'s own cluster ([lower]) or above it:
   the split that keeps an edge between two clusters from being decided
   from both sides in one substep. *)
let on_side ~lower vx cluster =
  match vx.cluster with
  | Some own -> if lower then cluster < own else cluster > own
  | None -> false

let phase_info_stage sim =
  stage sim ~label:"spanner/phase-info" ~receive:(receive_phase_info sim)
    (fun vx -> [ Phase_info { cluster = vx.cluster; marked = vx.marked } ])

(* Step 3 substep (and the three step-4 substeps): every qualifying vertex
   runs Connect against each cluster selected by [select] and queues one
   message per tried cluster. *)
let connect_stage sim ~label ~participates ~select ~weight_filtered =
  stage sim ~label ~receive:(receive_connect sim ~weight_filtered) (fun vx ->
      if participates vx then
        List.map
          (fun (x, members) ->
            match connect sim vx members with
            | Some (via, _s, w) -> Connect_ok { cluster = x; via; w }
            | None -> Connect_fail { cluster = x })
          (candidates_by_cluster sim vx ~select:(select vx))
      else [])

let run_on ?accountant ~prng ~k st =
  let graph = st.graph in
  let n = Graph.n graph and m = Graph.m graph in
  if k < 1 then invalid_arg "Spanner.run: k must be >= 1";
  let acc =
    match accountant with
    | Some a -> a
    | None -> Rounds.create ~bandwidth:(Model.bandwidth ~n)
  in
  let verts =
    Array.init n (fun v ->
        {
          id = v;
          cluster = Some v;
          marked = false;
          w_threshold = infinity;
          mark_prng = Prng.split prng;
          connect_prng = Prng.split prng;
        })
  in
  let sim =
    {
      st;
      n;
      verts;
      view = Array.make (2 * m) Untried;
      nb_cluster = Array.make (2 * m) (-1);
      nb_marked = Array.make (2 * m) false;
      nb_w = Array.make (2 * m) neg_infinity;
      acc;
      widest = Array.make n 0;
      supersteps = 0;
      consistent = true;
    }
  in
  let start_rounds = Rounds.checkpoint acc in
  let mark_probability = float_of_int n ** (-1.0 /. float_of_int k) in
  let depth = Array.make n 0 in

  for _phase = 1 to k - 1 do
    (* Step 1: centers mark; the mark propagates down the cluster tree
       (1-bit messages along F+ tree edges), charged at the deepest tree. *)
    let mark_draw = Array.map (fun vx -> Prng.float vx.mark_prng) verts in
    let center_marked =
      Array.init n (fun v ->
          verts.(v).cluster = Some v && mark_draw.(v) < mark_probability)
    in
    let max_depth = ref 0 in
    Array.iter
      (fun vx ->
        match vx.cluster with
        | Some c ->
            vx.marked <- center_marked.(c);
            max_depth := Stdlib.max !max_depth depth.(vx.id)
        | None -> vx.marked <- false)
      verts;
    Rounds.charge acc ~label:"spanner/marking" ~rounds:(Stdlib.max 1 !max_depth);
    sim.supersteps <- sim.supersteps + Stdlib.max 1 !max_depth;

    (* Everyone announces (cluster, marked) so neighbors can build their
       candidate sets for this phase. *)
    phase_info_stage sim;

    (* Step 2: unmarked-cluster vertices try to join a marked cluster. *)
    let joins = Array.make n None in
    stage sim ~label:"spanner/join-marked" ~receive:(receive_join sim) (fun vx ->
        match vx.cluster with
        | Some _ when not vx.marked ->
            let candidates = ref [] in
            iter_live sim vx.id (fun u s ->
                if sim.view.(s) <> Rejected && sim.nb_marked.(s)
                   && sim.nb_cluster.(s) >= 0
                then candidates := (u, s) :: !candidates);
            (match connect sim vx !candidates with
            | Some (via, s, w) ->
                vx.w_threshold <- w;
                let target = sim.nb_cluster.(s) in
                joins.(vx.id) <- Some (target, edge_of_slot s);
                [ Join { cluster = target; via; w } ]
            | None ->
                vx.w_threshold <- infinity;
                [ Join_none ])
        | Some _ | None -> []);

    (* Step 3.1 / 3.2: connections between unmarked clusters, split by
       cluster-id order so no edge is decided from both sides at once. *)
    let unmarked_clustered vx = vx.cluster <> None && not vx.marked in
    let select ~lower vx ~cluster ~slot =
      on_side ~lower vx cluster
      && (not sim.nb_marked.(slot))
      && st.weight.(edge_of_slot slot) < vx.w_threshold
    in
    let label = "spanner/unmarked-connect" in
    connect_stage sim ~label ~participates:unmarked_clustered
      ~select:(select ~lower:true) ~weight_filtered:true;
    connect_stage sim ~label ~participates:unmarked_clustered
      ~select:(select ~lower:false) ~weight_filtered:true;

    (* Phase epilogue: cluster updates become effective. *)
    Array.iter
      (fun vx ->
        if not vx.marked then begin
          match joins.(vx.id) with
          | Some (target, e) ->
              vx.cluster <- Some target;
              let other = Graph.other_endpoint (Graph.edge graph e) vx.id in
              depth.(vx.id) <- depth.(other) + 1
          | None -> vx.cluster <- None
        end)
      verts;
    Array.iter (fun vx -> vx.w_threshold <- infinity) verts
  done;

  (* Step 4: connect to the remaining clusters R_k.  A fresh announcement
     of final clusters (nobody is marked anymore: selection is by id). *)
  Array.iter (fun vx -> vx.marked <- false) verts;
  phase_info_stage sim;
  let unclustered vx = vx.cluster = None in
  let clustered vx = vx.cluster <> None in
  let select_any _vx ~cluster:_ ~slot:_ = true in
  let select ~lower vx ~cluster ~slot:_ = on_side ~lower vx cluster in
  let label = "spanner/final-connect" in
  connect_stage sim ~label ~participates:unclustered ~select:select_any
    ~weight_filtered:false;
  connect_stage sim ~label ~participates:clustered ~select:(select ~lower:true)
    ~weight_filtered:false;
  connect_stage sim ~label ~participates:clustered ~select:(select ~lower:false)
    ~weight_filtered:false;

  (* Collect results and check that the two endpoints of every tried edge
     agree on its classification (the implicit-communication guarantee). *)
  let fplus = ref [] and fminus = ref [] in
  let agree = ref sim.consistent in
  for e = m - 1 downto 0 do
    let vu = sim.view.(2 * e) and vv = sim.view.((2 * e) + 1) in
    if vu <> vv then agree := false;
    if vu = Accepted || vv = Accepted then fplus := e :: !fplus
    else if vu = Rejected || vv = Rejected then fminus := e :: !fminus
  done;
  let orientation =
    Array.of_list
      (List.map
         (fun e ->
           let from_ = st.tail.(e) in
           (from_, Graph.other_endpoint (Graph.edge graph e) from_))
         !fplus)
  in
  {
    fplus = !fplus;
    fminus = !fminus;
    orientation;
    clusters = Array.map (fun vx -> vx.cluster) verts;
    rounds = Rounds.checkpoint acc - start_rounds;
    supersteps = sim.supersteps;
    views_agree = !agree;
  }

let run ~prng ~graph ~p ~k () = run_on ~prng ~k (state ~graph ~p)

let stretch graph r =
  let rejected = Array.make (Graph.m graph) false in
  List.iter (fun e -> rejected.(e) <- true) r.fminus;
  let surviving =
    List.filter (fun e -> not rejected.(e)) (List.init (Graph.m graph) Fun.id)
  in
  Paths.stretch (Graph.sub_edges graph surviving) (Graph.sub_edges graph r.fplus)

let out_degrees ~n orientation =
  let deg = Array.make n 0 in
  Array.iter (fun (from_, _) -> deg.(from_) <- deg.(from_) + 1) orientation;
  deg
