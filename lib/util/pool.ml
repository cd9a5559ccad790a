(* A reusable worker pool over OCaml 5 domains.

   Design constraints, in order:

   1. Determinism: callers split index ranges into chunks whose boundaries
      depend only on the problem size (never on the pool size or on
      scheduling), and chunk results are combined in ascending chunk order.
      Together with per-chunk work that touches disjoint state, any pool
      size — including 1 — computes bit-identical results.
   2. Zero dependencies: domains, mutexes and condition variables from the
      standard library only.
   3. Graceful degradation: a pool of size 1 never spawns a domain and every
      operation runs inline; nested [parallel_for] calls (a worker task that
      itself asks for parallelism) detect the situation and run inline
      rather than deadlocking on their own pool. *)

type worker = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable job : (unit -> unit) option;
  mutable quit : bool;
  mutable idle : bool; (* job slot consumed and finished *)
  mutable domain : unit Domain.t option;
}

type t = {
  size : int; (* total lanes, including the calling domain *)
  workers : worker array; (* length [size - 1] *)
  in_use : bool Atomic.t; (* held while a parallel_for is in flight *)
}

let size t = t.size

let worker_loop w =
  let rec loop () =
    Mutex.lock w.mutex;
    while w.job = None && not w.quit do
      Condition.wait w.cond w.mutex
    done;
    if w.quit then Mutex.unlock w.mutex
    else begin
      let job = Option.get w.job in
      Mutex.unlock w.mutex;
      (job () : unit);
      Mutex.lock w.mutex;
      w.job <- None;
      w.idle <- true;
      Condition.broadcast w.cond;
      Mutex.unlock w.mutex;
      loop ()
    end
  in
  loop ()

let env_domains () =
  match Sys.getenv_opt "LBCC_DOMAINS" with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> Some d
      | Some _ | None -> None)

let create ?domains () =
  let requested =
    match domains with
    | Some d -> d
    | None -> (
        match env_domains () with
        | Some d -> d
        | None -> Domain.recommended_domain_count ())
  in
  let size = Stdlib.max 1 (Stdlib.min requested 128) in
  let workers =
    Array.init (size - 1) (fun _ ->
        {
          mutex = Mutex.create ();
          cond = Condition.create ();
          job = None;
          quit = false;
          idle = true;
          domain = None;
        })
  in
  Array.iter (fun w -> w.domain <- Some (Domain.spawn (fun () -> worker_loop w))) workers;
  { size; workers; in_use = Atomic.make false }

let shutdown t =
  Array.iter
    (fun w ->
      Mutex.lock w.mutex;
      w.quit <- true;
      Condition.broadcast w.cond;
      Mutex.unlock w.mutex)
    t.workers;
  Array.iter
    (fun w ->
      match w.domain with
      | Some d ->
          Domain.join d;
          w.domain <- None
      | None -> ())
    t.workers

(* The process-wide default pool, sized by LBCC_DOMAINS (or the runtime's
   recommendation) on first use.  [set_default_domains] rebuilds it — the
   determinism test suite uses this to replay protocols at 1/2/4 lanes. *)
let default_pool : t option ref = ref None
let exit_hook_registered = ref false

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
      let p = create () in
      default_pool := Some p;
      if not !exit_hook_registered then begin
        exit_hook_registered := true;
        at_exit (fun () ->
            match !default_pool with
            | Some p ->
                default_pool := None;
                shutdown p
            | None -> ())
      end;
      p

let set_default_domains d =
  if d < 1 then invalid_arg "Pool.set_default_domains: must be >= 1";
  (match !default_pool with Some p -> shutdown p | None -> ());
  default_pool := Some (create ~domains:d ());
  if not !exit_hook_registered then begin
    exit_hook_registered := true;
    at_exit (fun () ->
        match !default_pool with
        | Some p ->
            default_pool := None;
            shutdown p
        | None -> ())
  end

(* Chunk grid: boundaries depend only on [n] (and the caller's explicit
   [chunk]), never on the pool size, so reductions combine in the same
   order at every lane count. *)
let chunk_bounds ~n ~chunk =
  let chunk = Stdlib.max 1 chunk in
  (chunk, (n + chunk - 1) / chunk)

let default_chunk n = Stdlib.max 1 ((n + 63) / 64)

let run_chunks t ~nchunks work =
  (* Dynamic scheduling over a shared counter: which lane runs which chunk
     varies, but chunk payloads write disjoint state (or fill slot
     [chunk_index] of a results array), so scheduling is unobservable. *)
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let lane () =
    let rec grab () =
      let c = Atomic.fetch_and_add next 1 in
      if c < nchunks && Atomic.get failure = None then begin
        (try work c
         with e ->
           ignore (Atomic.compare_and_set failure None (Some e) : bool));
        grab ()
      end
    in
    grab ()
  in
  let engaged =
    Array.of_list
      (List.filteri
         (fun i _ -> i < nchunks - 1)
         (Array.to_list t.workers))
  in
  Array.iter
    (fun w ->
      Mutex.lock w.mutex;
      w.idle <- false;
      w.job <- Some lane;
      Condition.broadcast w.cond;
      Mutex.unlock w.mutex)
    engaged;
  lane ();
  Array.iter
    (fun w ->
      Mutex.lock w.mutex;
      while not w.idle do
        Condition.wait w.cond w.mutex
      done;
      Mutex.unlock w.mutex)
    engaged;
  match Atomic.get failure with Some e -> raise e | None -> ()

let parallel_for t ?chunk ~n f =
  if n > 0 then begin
    let chunk = match chunk with Some c -> c | None -> default_chunk n in
    if t.size = 1 || n <= chunk then f 0 n
    else if not (Atomic.compare_and_set t.in_use false true) then
      (* Nested call (or a concurrent caller): run inline. *)
      f 0 n
    else
      Fun.protect
        ~finally:(fun () -> Atomic.set t.in_use false)
        (fun () ->
          let chunk, nchunks = chunk_bounds ~n ~chunk in
          run_chunks t ~nchunks (fun c ->
              let lo = c * chunk in
              let hi = Stdlib.min n (lo + chunk) in
              f lo hi))
  end
