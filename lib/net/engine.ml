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
(* Shared helpers                                                      *)

(* The accountant's open-phase path at the moment the cap fired; an engine
   without an accountant reports the bare label's own scope. *)
let phase_of accountant =
  match accountant with Some acc -> Rounds.phase_path acc | None -> ""

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

let finish ~label ~on_timeout ~accountant ~live ~supersteps ~rounds
    ~messages_sent ~total_bits states =
  let converged = not (Array.exists Fun.id live) in
  if (not converged) && on_timeout = `Raise then
    raise (Timeout { label; supersteps; rounds; phase = phase_of accountant });
  ( states,
    { supersteps; rounds; messages_sent; total_bits; converged } )

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

(* The recorded verdict for one delivery of the previous superstep:
   [(1, None)] (one untampered copy) unless [record_overrides] stored an
   exception. *)
let copies_of faults overrides ~src ~dst =
  if Option.is_none faults then (1, None)
  else
    match Hashtbl.find_opt overrides (src, dst) with
    | Some verdict -> verdict
    | None -> (1, None)

(* A superstep costs its largest message, [ceil(max_bits / B)] rounds and
   at least one; charges the accountant and returns the cost. *)
let charge_superstep accountant ~label ~bandwidth ~max_bits =
  let bits = Stdlib.max 1 max_bits in
  let cost = Stdlib.max 1 (Lbcc_util.Bits.ceil_div bits bandwidth) in
  (match accountant with
  | Some acc -> Rounds.charge acc ~label ~bits ~rounds:cost
  | None -> ());
  cost

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
(* Generic engine                                                      *)

(* Double-buffered message slots, reused every superstep.  With a codec the
   payloads live packed in shared [Bytes] buffers (no per-message boxing in
   the store); without one they live in reusable ['msg option] arrays —
   still allocation-free at the store layer, the values themselves are
   whatever the protocol broadcasts. *)
type 'msg store = {
  s_mem : int -> bool;
  s_get : int -> 'msg;
  s_set : int -> 'msg -> unit;
  s_clear : unit -> unit; (* empty the current buffer *)
  s_swap : unit -> unit; (* current becomes previous *)
  s_mem_prev : int -> bool;
  s_get_prev : int -> 'msg;
}

let option_store n =
  let cur = ref (Array.make n None) and prev = ref (Array.make n None) in
  {
    s_mem = (fun v -> Option.is_some !cur.(v));
    s_get =
      (fun v ->
        match !cur.(v) with
        | Some m -> m
        | None -> invalid_arg "Engine: no message in current slot");
    s_set = (fun v m -> !cur.(v) <- Some m);
    s_clear = (fun () -> Array.fill !cur 0 n None);
    s_swap =
      (fun () ->
        let t = !prev in
        prev := !cur;
        cur := t);
    s_mem_prev = (fun v -> Option.is_some !prev.(v));
    s_get_prev =
      (fun v ->
        match !prev.(v) with
        | Some m -> m
        | None -> invalid_arg "Engine: no message in previous slot");
  }

let packed_store codec n =
  let cur = ref (Packed.buffer codec ~n) and prev = ref (Packed.buffer codec ~n) in
  {
    s_mem = (fun v -> Packed.mem !cur v);
    s_get = (fun v -> Packed.get !cur v);
    s_set = (fun v m -> Packed.set !cur v m);
    s_clear = (fun () -> Packed.clear !cur);
    s_swap =
      (fun () ->
        let t = !prev in
        prev := !cur;
        cur := t);
    s_mem_prev = (fun v -> Packed.mem !prev v);
    s_get_prev = (fun v -> Packed.get !prev v);
  }

let run ?pool ?accountant ?tracer ?(label = "engine")
    ?(max_supersteps = 1_000_000) ?(on_timeout = `Truncate) ?faults
    ?(tamper = fun ~salt:_ msg -> msg) ?codec ~model ~graph ~size_bits ~init
    ~step () =
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
    | Model.Input_graph -> Some (Packed.plan graph)
  in
  let replay_adj = replay_adj_of ~model ~graph ~faults in
  let states = Array.init n init in
  let live = Array.make n true in
  let store = match codec with Some c -> packed_store c n | None -> option_store n in
  let overrides : (int * int, int * int option) Hashtbl.t =
    Hashtbl.create 16
  in
  let supersteps = ref 0 and rounds = ref 0 in
  let messages_sent = ref 0 and total_bits = ref 0 in
  let bandwidth = Model.bandwidth ~n in
  let chunk = step_chunk n in
  let any_live () = Array.exists Fun.id live in
  (* Consing while walking senders in descending order yields the inbox in
     ascending sender order with duplicated deliveries adjacent.  A tampered
     delivery is rewritten per receiver ([tamper] is pure, so applying it
     inside the parallel step phase is schedule-independent). *)
  let gather v =
    let inbox = ref [] in
    let take u =
      if store.s_mem_prev u then begin
        let c, salt = copies_of faults overrides ~src:u ~dst:v in
        if c > 0 then begin
          let msg = store.s_get_prev u in
          let msg =
            match salt with None -> msg | Some salt -> tamper ~salt msg
          in
          for _ = 1 to c do
            inbox := (u, msg) :: !inbox
          done
        end
      end
    in
    (match plan with
    | None ->
        for u = n - 1 downto 0 do
          if u <> v then take u
        done
    | Some p ->
        let lo = p.Packed.off.(v) in
        for i = p.Packed.off.(v + 1) - 1 downto lo do
          take p.Packed.srcs.(i)
        done);
    !inbox
  in
  let round_ref = ref 0 in
  let body lo hi =
    let round = !round_ref in
    for v = lo to hi - 1 do
      if live.(v) then begin
        let inbox = gather v in
        let state', msg, continue = step ~round ~vertex:v states.(v) inbox in
        states.(v) <- state';
        (match msg with Some m -> store.s_set v m | None -> ());
        if not continue then live.(v) <- false
      end
    done
  in
  while any_live () && !supersteps < max_supersteps do
    incr supersteps;
    let round = !supersteps in
    round_ref := round;
    apply_crashes faults live ~round;
    store.s_clear ();
    Pool.parallel_for pool ~chunk ~n body;
    let max_bits = ref 0 in
    for v = 0 to n - 1 do
      if store.s_mem v then begin
        let bits = size_bits (store.s_get v) in
        incr messages_sent;
        total_bits := !total_bits + bits;
        max_bits := Stdlib.max !max_bits bits
      end
    done;
    record_overrides faults overrides ~round ~is_present:store.s_mem ~replay_adj
      ~n;
    store.s_swap ();
    rounds :=
      !rounds
      + charge_superstep accountant ~label ~bandwidth ~max_bits:!max_bits
  done;
  Lbcc_obs.Trace.add tracer ~rounds:!rounds ~bits:!total_bits
    ~supersteps:!supersteps ~messages:!messages_sent ();
  finish ~label ~on_timeout ~accountant ~live ~supersteps:!supersteps
    ~rounds:!rounds ~messages_sent:!messages_sent ~total_bits:!total_bits
    states

(* ------------------------------------------------------------------ *)
(* Struct-of-arrays entry point                                        *)

type soa_inbox = {
  mutable count : int;
  senders : int array;
  payloads : int array;
}

type soa_out = { mutable send : bool; mutable value : int }

type soa_step = round:int -> vertex:int -> soa_inbox -> soa_out -> bool

let run_soa ?pool ?accountant ?tracer ?(label = "engine")
    ?(max_supersteps = 1_000_000) ?(on_timeout = `Truncate) ?faults
    ?(tamper = fun ~salt:_ msg -> msg) ~model ~graph ~size_bits ~step () =
  Lbcc_obs.Trace.span tracer label @@ fun () ->
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let faults = active_faults faults in
  let n = Graph.n graph in
  let plan =
    match model.Model.topology with
    | Model.Clique -> None
    | Model.Input_graph -> Some (Packed.plan graph)
  in
  let replay_adj = replay_adj_of ~model ~graph ~faults in
  let live = Array.make n true in
  (* Double-buffered flat payload slots + presence bytemaps. *)
  let pay_a = Array.make n 0 and pay_b = Array.make n 0 in
  let pres_a = Bytes.make n '\000' and pres_b = Bytes.make n '\000' in
  let cur_pay = ref pay_a and prev_pay = ref pay_b in
  let cur_pres = ref pres_a and prev_pres = ref pres_b in
  let overrides : (int * int, int * int option) Hashtbl.t =
    Hashtbl.create 16
  in
  let supersteps = ref 0 and rounds = ref 0 in
  let messages_sent = ref 0 and total_bits = ref 0 in
  let bandwidth = Model.bandwidth ~n in
  let chunk = step_chunk n in
  let nchunks = (n + chunk - 1) / chunk in
  (* Preallocated per-chunk scratch: an inbox view (capacity = duplicated
     worst case) and an out cell.  Chunk [lo/chunk] owns slot [lo/chunk] at
     every pool size, and the sequential fallback (one range [0, n)) maps
     to slot 0 — either way no two concurrent ranges share scratch. *)
  let cap =
    Stdlib.max 1
      (2
      * match plan with None -> Stdlib.max 0 (n - 1) | Some p -> Packed.max_in_degree p)
  in
  let scratch =
    Array.init (Stdlib.max 1 nchunks) (fun _ ->
        { count = 0; senders = Array.make cap 0; payloads = Array.make cap 0 })
  in
  let outs =
    Array.init (Stdlib.max 1 nchunks) (fun _ -> { send = false; value = 0 })
  in
  let any_live () = Array.exists Fun.id live in
  (* Ascending fill, duplicated deliveries adjacent: the same inbox order
     the generic engine produces.  [take] is bound once here — defining
     it inside [gather_into] would allocate a closure per vertex per
     superstep, which is exactly what this path exists to avoid. *)
  let take ib v u =
    if Bytes.unsafe_get !prev_pres u <> '\000' then begin
      let c, salt = copies_of faults overrides ~src:u ~dst:v in
      if c > 0 then begin
        let m = Array.unsafe_get !prev_pay u in
        let m = match salt with None -> m | Some salt -> tamper ~salt m in
        for _ = 1 to c do
          ib.senders.(ib.count) <- u;
          ib.payloads.(ib.count) <- m;
          ib.count <- ib.count + 1
        done
      end
    end
  in
  let gather_into ib v =
    ib.count <- 0;
    match plan with
    | None ->
        for u = 0 to n - 1 do
          if u <> v then take ib v u
        done
    | Some p ->
        for i = p.Packed.off.(v) to p.Packed.off.(v + 1) - 1 do
          take ib v p.Packed.srcs.(i)
        done
  in
  let round_ref = ref 0 in
  let is_present v = Bytes.get !cur_pres v <> '\000' in
  (* One closure for the whole run (and the bit-maximum cell hoisted too):
     at pool size 1 the superstep loop allocates nothing — the SCALE bench
     pins this with Gc.minor_words. *)
  let body lo hi =
    let ci = lo / chunk in
    let ib = scratch.(ci) and out = outs.(ci) in
    let round = !round_ref in
    for v = lo to hi - 1 do
      if live.(v) then begin
        gather_into ib v;
        out.send <- false;
        let continue = step ~round ~vertex:v ib out in
        if out.send then begin
          Array.unsafe_set !cur_pay v out.value;
          Bytes.unsafe_set !cur_pres v '\001'
        end;
        if not continue then live.(v) <- false
      end
    done
  in
  let max_bits = ref 0 in
  while any_live () && !supersteps < max_supersteps do
    incr supersteps;
    let round = !supersteps in
    round_ref := round;
    apply_crashes faults live ~round;
    Bytes.fill !cur_pres 0 n '\000';
    Pool.parallel_for pool ~chunk ~n body;
    max_bits := 0;
    for v = 0 to n - 1 do
      if Bytes.unsafe_get !cur_pres v <> '\000' then begin
        let bits = size_bits (Array.unsafe_get !cur_pay v) in
        incr messages_sent;
        total_bits := !total_bits + bits;
        max_bits := Stdlib.max !max_bits bits
      end
    done;
    record_overrides faults overrides ~round ~is_present ~replay_adj ~n;
    let tp = !prev_pay and ts = !prev_pres in
    prev_pay := !cur_pay;
    prev_pres := !cur_pres;
    cur_pay := tp;
    cur_pres := ts;
    rounds :=
      !rounds
      + charge_superstep accountant ~label ~bandwidth ~max_bits:!max_bits
  done;
  Lbcc_obs.Trace.add tracer ~rounds:!rounds ~bits:!total_bits
    ~supersteps:!supersteps ~messages:!messages_sent ();
  snd
    (finish ~label ~on_timeout ~accountant ~live ~supersteps:!supersteps
       ~rounds:!rounds ~messages_sent:!messages_sent ~total_bits:!total_bits
       ())
