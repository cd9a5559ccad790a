open Lbcc_util
module Graph = Lbcc_graph.Graph
module Network = Lbcc_flow.Network
module Vec = Lbcc_linalg.Vec
module Ctx = Lbcc.Ctx

type verdict = Ok | Degraded | Failed

type attempt = {
  attempt_seed : int;
  accepted : bool;
  score : float;
  rounds : int;
  detail : string;
}

type 'a outcome = {
  value : 'a option;
  verdict : verdict;
  attempts : attempt list;
}

let verdict_string = function
  | Ok -> "ok"
  | Degraded -> "degraded"
  | Failed -> "failed"

let pp ppf o =
  Format.fprintf ppf "@[<v>verdict=%s attempts=%d@," (verdict_string o.verdict)
    (List.length o.attempts);
  List.iteri
    (fun i a ->
      Format.fprintf ppf "  #%d seed=%d %s score=%g rounds=%d %s@," (i + 1)
        a.attempt_seed
        (if a.accepted then "accepted" else "rejected")
        a.score a.rounds a.detail)
    o.attempts;
  Format.fprintf ppf "@]"

let retry ?(max_retries = 3) ~ctx ~run ~accept ~score ~rounds ~detail () =
  if max_retries < 0 then invalid_arg "Resilient.retry: max_retries must be >= 0";
  let chain = Prng.create ctx.Ctx.seed in
  let fresh_seed () =
    Int64.to_int (Prng.next_int64 (Prng.split chain)) land 0x3FFFFFFF
  in
  let best = ref None in
  let attempts = ref [] in
  let record a = attempts := a :: !attempts in
  let rec go i =
    if i > 1 + max_retries then
      match !best with
      | Some v -> { value = Some v; verdict = Degraded; attempts = List.rev !attempts }
      | None -> { value = None; verdict = Failed; attempts = List.rev !attempts }
    else begin
      (* Only the seed changes between attempts: tracer, metrics and
         reliability reach every attempt. *)
      let ctx = if i = 1 then ctx else { ctx with Ctx.seed = fresh_seed () } in
      let attempt_seed = ctx.Ctx.seed in
      match run ~ctx ~attempt:i with
      | v ->
          let ok = accept v in
          record
            {
              attempt_seed;
              accepted = ok;
              score = score v;
              rounds = rounds v;
              detail = detail v;
            };
          if ok then
            { value = Some v; verdict = Ok; attempts = List.rev !attempts }
          else begin
            (match !best with
            | Some b when score b <= score v -> ()
            | _ -> best := Some v);
            go (i + 1)
          end
      | exception e ->
          record
            {
              attempt_seed;
              accepted = false;
              score = infinity;
              rounds = 0;
              detail = Printexc.to_string e;
            };
          go (i + 1)
    end
  in
  go 1

(* [accept] on the three entry points is the test seam that drives the
   [Failed] verdict. *)
(* lbcc-lint: allow typ-dead-option *)
let sparsify ?(ctx = Ctx.default) ?(epsilon = 0.5) ?t ?max_retries ?accept g =
  let n = Graph.n g in
  let base_t =
    match t with
    | Some t -> t
    | None -> Lbcc_sparsifier.Sparsify.default_t ~n ~epsilon
  in
  let accept =
    match accept with
    | Some f -> f
    | None ->
        fun (r : Lbcc.sparsifier_result) ->
          Float.is_finite r.Lbcc.epsilon_achieved
          && r.Lbcc.epsilon_achieved <= epsilon
  in
  retry ?max_retries ~ctx
    ~run:(fun ~ctx ~attempt ->
      (* Backoff: doubling the bundle size doubles the w.h.p. exponent. *)
      let t = base_t * (1 lsl (attempt - 1)) in
      Lbcc.sparsify ~ctx ~epsilon ~t g)
    ~accept
    ~score:(fun r -> r.Lbcc.epsilon_achieved)
    ~rounds:(fun r -> r.Lbcc.rounds.Lbcc.total)
    ~detail:(fun r ->
      Printf.sprintf "eps=%.4f m=%d" r.Lbcc.epsilon_achieved
        (Graph.m r.Lbcc.sparsifier))
    ()

(* lbcc-lint: allow typ-dead-option *)
let solve_laplacian ?(ctx = Ctx.default) ?(eps = 1e-8) ?max_retries ?accept g
    ~b =
  let accept =
    match accept with
    | Some f -> f
    | None ->
        fun (r : Lbcc.laplacian_result) ->
          Float.is_finite r.Lbcc.residual && r.Lbcc.residual <= 10.0 *. eps
  in
  retry ?max_retries ~ctx
    ~run:(fun ~ctx ~attempt:_ -> Lbcc.solve_laplacian ~ctx ~eps g ~b)
    ~accept
    ~score:(fun r -> r.Lbcc.residual)
    ~rounds:(fun r -> r.Lbcc.preprocessing_rounds + r.Lbcc.solve_rounds)
    ~detail:(fun r ->
      Printf.sprintf "residual=%.2e iters=%d" r.Lbcc.residual r.Lbcc.iterations)
    ()

(* lbcc-lint: allow typ-dead-option *)
let min_cost_max_flow ?(ctx = Ctx.default) ?max_retries ?accept net =
  let accept =
    match accept with
    | Some f -> f
    | None -> fun (r : Lbcc.flow_result) -> r.Lbcc.exact
  in
  retry ?max_retries ~ctx
    ~run:(fun ~ctx ~attempt:_ -> Lbcc.min_cost_max_flow ~ctx net)
    ~accept
    ~score:(fun r -> if r.Lbcc.exact then 0.0 else 1.0)
    ~rounds:(fun r -> r.Lbcc.rounds.Lbcc.total)
    ~detail:(fun r ->
      Printf.sprintf "value=%d cost=%d exact=%b" r.Lbcc.value r.Lbcc.cost
        r.Lbcc.exact)
    ()
