module Graph = Lbcc_graph.Graph
module Pool = Lbcc_util.Pool

module Inbox = struct
  (* Parallel sender/message columns, filled from index 0.  One buffer is
     reused for every vertex a chunk steps, so only [len] is reset between
     receivers. *)
  type 'msg t = {
    mutable len : int;
    mutable senders : int array;
    mutable msgs : 'msg array;
  }

  let create () = { len = 0; senders = [||]; msgs = [||] }
  let clear t = t.len <- 0
  let length t = t.len

  let check t i name =
    if i < 0 || i >= t.len then invalid_arg ("Engine.Inbox." ^ name)

  let sender t i =
    check t i "sender";
    t.senders.(i)

  let message t i =
    check t i "message";
    t.msgs.(i)

  (* Capacity doubles and is kept, so a buffer settles at the largest inbox
     it has held and allocates nothing after that.  The message that
     overflows seeds the new column: no placeholder value is needed. *)
  let grow t msg =
    let cap = Stdlib.max 8 (2 * Array.length t.senders) in
    let senders = Array.make cap 0 and msgs = Array.make cap msg in
    Array.blit t.senders 0 senders 0 t.len;
    Array.blit t.msgs 0 msgs 0 t.len;
    t.senders <- senders;
    t.msgs <- msgs

  let push t u msg =
    if t.len = Array.length t.senders then grow t msg;
    t.senders.(t.len) <- u;
    t.msgs.(t.len) <- msg;
    t.len <- t.len + 1

  let iter f t =
    for i = 0 to t.len - 1 do
      f t.senders.(i) t.msgs.(i)
    done

  let fold f acc t =
    let acc = ref acc in
    for i = 0 to t.len - 1 do
      acc := f !acc t.senders.(i) t.msgs.(i)
    done;
    !acc
end

type 'msg inbox = 'msg Inbox.t

type ('state, 'msg) step =
  round:int -> vertex:int -> 'state -> 'msg inbox -> 'state * 'msg option * bool

type stats = {
  supersteps : int;
  rounds : int;
  messages_sent : int;
  total_bits : int;
  converged : bool;
}

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
   outgoing slot and live flag of its own vertices (and its own inbox
   scratch), so any pool size (and any chunk schedule) computes the same
   result.  Keep the chunks coarse: a superstep of a small protocol is far
   cheaper than a dispatch. *)
let step_chunk n = Stdlib.max 16 ((n + 63) / 64)

(* The non-default fault verdicts of one superstep's broadcasts, as
   [(src, copies, salt)] triples (salt -1: untampered), stride 3.  They are
   logged in replay order, then counting-sorted by receiver: [off.(v)] ..
   [off.(v+1)-1] are [v]'s verdicts, ascending by sender (the log walks
   senders in ascending order and the sort is stable).  The gather merges
   each segment with its ascending sender walk, so a lookup costs nothing
   beyond the walk and the tables stay O(n + verdicts), allocated once. *)
type verdicts = {
  off : int array; (* n + 2; see [sort_verdicts] *)
  mutable log : int array; (* stride 4: dst, src, copies, salt *)
  mutable len : int;
  mutable by_dst : int array; (* stride 3: src, copies, salt *)
}

let verdicts_create n =
  { off = Array.make (n + 2) 0; log = [||]; len = 0; by_dst = [||] }

let ensure a size =
  if Array.length a >= size then a
  else begin
    let b = Array.make (Stdlib.max size (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let log_verdict vd ~dst ~src ~copies ~salt =
  let i = 4 * vd.len in
  vd.log <- ensure vd.log (i + 4);
  vd.log.(i) <- dst;
  vd.log.(i + 1) <- src;
  vd.log.(i + 2) <- copies;
  vd.log.(i + 3) <- salt;
  vd.len <- vd.len + 1

(* Stable counting sort of the log by receiver.  Counting into [off.(d+2)]
   and scattering through [off.(d+1)] leaves receiver [d]'s segment at
   [off.(d) .. off.(d+1)-1]. *)
let sort_verdicts vd ~n =
  let off = vd.off in
  Array.fill off 0 (n + 2) 0;
  for e = 0 to vd.len - 1 do
    let d = vd.log.(4 * e) in
    off.(d + 2) <- off.(d + 2) + 1
  done;
  for i = 2 to n + 1 do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  vd.by_dst <- ensure vd.by_dst (3 * vd.len);
  for e = 0 to vd.len - 1 do
    let d = vd.log.(4 * e) in
    let k = off.(d + 1) in
    off.(d + 1) <- k + 1;
    vd.by_dst.(3 * k) <- vd.log.((4 * e) + 1);
    vd.by_dst.((3 * k) + 1) <- vd.log.((4 * e) + 2);
    vd.by_dst.((3 * k) + 2) <- vd.log.((4 * e) + 3)
  done

(* Fault verdicts are replayed at send time, sender-major, in the same
   adjacency order as the historical delivery loop, so stateful budgets
   (adversarial drop quotas) burn in the identical query sequence.  Only
   non-default verdicts are logged; the next superstep's gather consumes
   them. *)
let record_verdicts f vd ~round ~sent_ids ~n_sent ~replay_adj ~n =
  vd.len <- 0;
  let record ~src ~dst =
    let c = Fault.copies f ~round ~src ~dst in
    let salt = if c = 0 then None else Fault.tamper f ~round ~src ~dst in
    if c <> 1 || Option.is_some salt then
      log_verdict vd ~dst ~src ~copies:c
        ~salt:(match salt with Some s -> s | None -> -1)
  in
  for i = 0 to n_sent - 1 do
    let v = sent_ids.(i) in
    match replay_adj with
    | None ->
        for u = 0 to n - 1 do
          if u <> v then record ~src:v ~dst:u
        done
    | Some adj ->
        let a = adj.(v) in
        for j = 0 to Array.length a - 1 do
          record ~src:v ~dst:a.(j)
        done
  done;
  sort_verdicts vd ~n

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

(* Delivers [u]'s broadcast [msg] to the inbox [buf] under the verdicts
   [by_dst.(k) ..] of its receiver, whose segment ends at [kend]; returns
   the segment cursor for the receiver's next (larger or equal) sender.  A
   sender with no verdict delivers one untampered copy.  Parallel edges
   log one verdict per edge for the same pair, and the last one counts,
   as it did when verdicts were a table keyed by the pair. *)
let deliver buf by_dst ~kend ~tamper k u msg =
  let k = ref k in
  while !k < kend && by_dst.(3 * !k) < u do
    incr k
  done;
  if !k < kend && by_dst.(3 * !k) = u then begin
    let j = ref !k in
    while !j + 1 < kend && by_dst.(3 * (!j + 1)) = u do
      incr j
    done;
    let copies = by_dst.((3 * !j) + 1) and salt = by_dst.((3 * !j) + 2) in
    let msg = if salt < 0 then msg else tamper ~salt msg in
    for _ = 1 to copies do
      Inbox.push buf u msg
    done
  end
  else Inbox.push buf u msg;
  !k

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let run ?accountant ?(label = "engine") ?(max_supersteps = 1_000_000) ?faults
    ?(tamper = fun ~salt:_ msg -> msg) ~model ~graph ~size_bits ~init ~step ()
    =
  let pool = Pool.default () in
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
     delivered.  [sent_ids.(0 .. n_sent-1)] are the ascending ids of
     [prev]'s occupied slots, the senders a clique receiver walks. *)
  let cur = ref (Array.make n None) and prev = ref (Array.make n None) in
  let sent_ids = Array.make n 0 and n_sent = ref 0 in
  let vd = verdicts_create n in
  let supersteps = ref 0 and rounds = ref 0 in
  let messages_sent = ref 0 and total_bits = ref 0 in
  let bandwidth = Model.bandwidth ~n in
  let chunk = step_chunk n in
  (* One inbox buffer per chunk of the fixed chunk grid. *)
  let scratch =
    Array.init ((n + chunk - 1) / chunk) (fun _ -> Inbox.create ())
  in
  let any_live () = Array.exists Fun.id live in
  (* Fills [buf] with [v]'s deliveries, ascending by sender, duplicated
     deliveries adjacent.  Without faults each present sender delivers one
     copy; under faults each delivery carries the verdict
     [record_verdicts] logged for it.  A tampered delivery is rewritten
     per receiver ([tamper] is pure, so applying it inside the parallel
     step phase is schedule-independent). *)
  let gather buf v =
    Inbox.clear buf;
    let prev = !prev in
    (* The sender walk: [ids.(lo .. hi-1)], ascending.  [u <> v] below
       skips self on the clique; graphs have no self-loops. *)
    let ids = match plan with None -> sent_ids | Some p -> p.Plan.srcs in
    let lo = match plan with None -> 0 | Some p -> p.Plan.off.(v) in
    let hi = match plan with None -> !n_sent | Some p -> p.Plan.off.(v + 1) in
    match faults with
    | None ->
        for i = lo to hi - 1 do
          let u = ids.(i) in
          if u <> v then
            match prev.(u) with Some msg -> Inbox.push buf u msg | None -> ()
        done
    | Some _ ->
        let kend = vd.off.(v + 1) in
        let k = ref vd.off.(v) in
        for i = lo to hi - 1 do
          let u = ids.(i) in
          if u <> v then
            match prev.(u) with
            | Some msg -> k := deliver buf vd.by_dst ~kend ~tamper !k u msg
            | None -> ()
        done
  in
  let round_ref = ref 0 in
  let body lo hi =
    let round = !round_ref in
    let out = !cur in
    let buf = scratch.(lo / chunk) in
    for v = lo to hi - 1 do
      if live.(v) then begin
        gather buf v;
        let state', msg, continue = step ~round ~vertex:v states.(v) buf in
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
    let sent = !cur in
    let max_bits = ref 0 in
    n_sent := 0;
    for v = 0 to n - 1 do
      match sent.(v) with
      | None -> ()
      | Some m ->
          let bits = size_bits m in
          sent_ids.(!n_sent) <- v;
          incr n_sent;
          total_bits := !total_bits + bits;
          max_bits := Stdlib.max !max_bits bits
    done;
    messages_sent := !messages_sent + !n_sent;
    (match faults with
    | None -> ()
    | Some f ->
        record_verdicts f vd ~round ~sent_ids ~n_sent:!n_sent ~replay_adj ~n);
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
  let converged = not (any_live ()) in
  ( states,
    {
      supersteps = !supersteps;
      rounds = !rounds;
      messages_sent = !messages_sent;
      total_bits = !total_bits;
      converged;
    } )
