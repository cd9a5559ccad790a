(* Admission control + fingerprint-coalescing scheduler.

   Pure bookkeeping: the scheduler never touches a socket, a clock or a
   solver, so its decisions are a deterministic function of the event trace
   (the interleaving of [admit] and [dispatch] calls).  Time is measured in
   completed batches — the only monotone quantity the daemon already
   produces — which keeps every decision replayable: given the same trace,
   the same batches come out in the same order with the same composition
   (test_serve pins this at 1/2/4 worker domains). *)

module Metrics = Lbcc_obs.Metrics

type config = {
  max_queue : int;  (* admission bound: max requests pending at once *)
  max_batch : int;  (* coalescing cap per dispatched batch *)
  window : int;  (* max completed batches a request may wait un-dispatched *)
}

let default_config = { max_queue = 256; max_batch = 16; window = 4 }

type 'a item = { payload : 'a; seq : int; admitted_at : int }

type 'a bin = { key : string; q : 'a item Queue.t }

type 'a t = {
  cfg : config;
  metrics : Metrics.t option;
  mutable bins : 'a bin list;  (* first-arrival order of current members *)
  mutable seq : int;
  mutable pending : int;
  mutable batches : int;  (* completed (= dispatched) batches *)
  mutable admitted : int;
  mutable rejected : int;
}

let create ?metrics cfg =
  if cfg.max_queue < 1 then invalid_arg "Sched.create: max_queue < 1";
  if cfg.max_batch < 1 then invalid_arg "Sched.create: max_batch < 1";
  if cfg.window < 0 then invalid_arg "Sched.create: negative window";
  {
    cfg;
    metrics;
    bins = [];
    seq = 0;
    pending = 0;
    batches = 0;
    admitted = 0;
    rejected = 0;
  }

let pending t = t.pending
let batches t = t.batches
let admitted t = t.admitted
let rejected t = t.rejected

let gauge_depth t =
  Metrics.set_gauge t.metrics "serve.queue_depth" (float_of_int t.pending)

let admit t ~key payload =
  if t.pending >= t.cfg.max_queue then begin
    t.rejected <- t.rejected + 1;
    Metrics.inc t.metrics "serve.rejected";
    false
  end
  else begin
    t.seq <- t.seq + 1;
    let item = { payload; seq = t.seq; admitted_at = t.batches } in
    let bin =
      match List.find_opt (fun b -> String.equal b.key key) t.bins with
      | Some b -> b
      | None ->
          let b = { key; q = Queue.create () } in
          t.bins <- t.bins @ [ b ];
          b
    in
    Queue.push item bin.q;
    t.pending <- t.pending + 1;
    t.admitted <- t.admitted + 1;
    Metrics.inc t.metrics "serve.admitted";
    gauge_depth t;
    true
  end

type 'a batch = { key : string; items : 'a list; occupancy : int }

(* Selection policy, in priority order (ties always break toward the bin
   whose head request is oldest, i.e. smallest admission sequence number —
   a total order, so the choice is unique):

   1. a bin whose head request has waited >= window completed batches
      (the latency guard: coalescing never starves a lonely fingerprint);
   2. a bin holding a full batch (>= max_batch requests);
   3. under [force] (drain, or an idle poll loop), any non-empty bin.

   Otherwise the scheduler holds its fire and lets requests accumulate. *)
let dispatch ?(force = false) t =
  if t.pending = 0 then None
  else begin
    let head b = (Queue.peek b.q).seq in
    let oldest candidates =
      List.fold_left
        (fun best b ->
          match best with
          | Some b' when head b' <= head b -> best
          | _ -> Some b)
        None candidates
    in
    let expired b = t.batches - (Queue.peek b.q).admitted_at >= t.cfg.window in
    let full b = Queue.length b.q >= t.cfg.max_batch in
    let choice =
      match oldest (List.filter expired t.bins) with
      | Some _ as c -> c
      | None -> (
          match oldest (List.filter full t.bins) with
          | Some _ as c -> c
          | None -> if force then oldest t.bins else None)
    in
    match choice with
    | None -> None
    | Some bin ->
        let take = min t.cfg.max_batch (Queue.length bin.q) in
        let items = ref [] in
        for _ = 1 to take do
          let it = Queue.pop bin.q in
          Metrics.observe t.metrics "serve.queue_wait_batches"
            (float_of_int (t.batches - it.admitted_at));
          items := it.payload :: !items
        done;
        if Queue.is_empty bin.q then
          t.bins <-
            List.filter
              (fun (b : _ bin) -> not (String.equal b.key bin.key))
              t.bins;
        t.pending <- t.pending - take;
        t.batches <- t.batches + 1;
        Metrics.observe t.metrics "serve.batch_occupancy" (float_of_int take);
        gauge_depth t;
        Some { key = bin.key; items = List.rev !items; occupancy = take }
  end
