(* Command-line front end: generate inputs, run the three main algorithms,
   inspect round counts, script robustness experiments.

     lbcc sparsify --vertices 64 --family er --epsilon 0.5 --max-retries 3
     lbcc solve    --vertices 64 --family grid --eps 1e-8
     lbcc solve    --vertices 64 --batch 8       # one prepared handle, 8 RHS
     lbcc prepare  --vertices 64 --queries 8 --repeat 2
     lbcc update   --vertices 64 --steps 4 --ops 8  # incremental sketch
     lbcc spanner  --vertices 96 --stretch 3 --edge-prob 0.5
     lbcc flow     --vertices 8 --density 0.3 --max-capacity 6 --max-cost 5
     lbcc dist     --algo sssp --drop-prob 0.2 --crash 5@30 --fault-seed 7
*)

open Cmdliner
open Lbcc_util
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Vec = Lbcc_linalg.Vec
module Lbcc = Lbcc_core.Lbcc
module Resilient = Lbcc_core.Resilient
module Model = Lbcc_net.Model
module Rounds = Lbcc_net.Rounds
module Fault = Lbcc_net.Fault
module Byzantine = Lbcc_net.Byzantine
module Bfs = Lbcc_dist.Bfs
module Sssp = Lbcc_dist.Sssp
module Leader = Lbcc_dist.Leader
module Trace = Lbcc_obs.Trace
module Metrics = Lbcc_obs.Metrics
module Json = Lbcc_obs.Json
module Report = Lbcc_obs.Report
open Cli_args

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Worker domains for the multicore execution layer (default: \
           $(b,LBCC_DOMAINS) or the runtime's recommendation).  Results are \
           identical at every value; only wall-clock changes.")

(* Evaluated before the command body (Cmdliner applies terms left to
   right), so the pool is resized before any work runs. *)
let with_domains term =
  let apply = function
    | Some d when d < 1 -> Error (`Msg "--domains must be >= 1")
    | d ->
        Option.iter Pool.set_default_domains d;
        Ok ()
  in
  let setup_term = Term.term_result Term.(const apply $ domains_arg) in
  Term.(const (fun () r -> r) $ setup_term $ term)

let n_arg =
  Arg.(
    value & opt positive_int 64
    & info [ "n"; "vertices" ] ~docv:"N" ~doc:"Number of vertices.")

let family_arg =
  let families = [ ("er", `Er); ("grid", `Grid); ("complete", `Complete);
                   ("torus", `Torus); ("geometric", `Geometric); ("barbell", `Barbell) ] in
  Arg.(
    value
    & opt (enum families) `Er
    & info [ "family" ] ~docv:"FAMILY"
        ~doc:"Graph family: er, grid, complete, torus, geometric, barbell.")

let w_max_arg =
  Arg.(value & opt int 8 & info [ "w-max" ] ~docv:"W" ~doc:"Maximum edge weight.")

(* A size or weight the generator rejects is bad input, not a crash. *)
let make_graph family seed n w_max =
  let prng = Prng.create seed in
  try
    match family with
    | `Er -> Gen.erdos_renyi_connected prng ~n ~p:0.3 ~w_max
    | `Grid ->
        let side = Stdlib.max 2 (int_of_float (sqrt (float_of_int n))) in
        Gen.grid prng ~rows:side ~cols:side ~w_max
    | `Complete -> Gen.complete prng ~n ~w_max
    | `Torus ->
        let side = Stdlib.max 3 (int_of_float (sqrt (float_of_int n))) in
        Gen.torus prng ~rows:side ~cols:side ~w_max
    | `Geometric -> Gen.random_geometric prng ~n ~radius:0.3 ~w_max
    | `Barbell ->
        Gen.barbell prng ~clique:(Stdlib.max 2 (n / 3))
          ~path:(Stdlib.max 1 (n / 3)) ~w_max
  with Invalid_argument msg ->
    Printf.eprintf "lbcc: %s\n" msg;
    exit 2

(* ------------------------------------------------------------------ *)
(* Observability flags (sparsify / solve / flow)                       *)

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Print the hierarchical span tree after the run: per-phase \
           simulated rounds, broadcast bits, engine supersteps and wall \
           clock.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "After the run, print a JSON document with the span tree and the \
           metrics registry as the final line of output (single-line, so \
           $(b,tail -1) extracts it).")

let make_obs ~trace ~json =
  if trace || json then (Some (Trace.create ()), Some (Metrics.create ()))
  else (None, None)

let emit_obs ~trace ~json tracer metrics =
  (match tracer with
  | Some tr when trace ->
      Printf.printf "trace:\n";
      Format.printf "%a@?" Trace.pp tr
  | _ -> ());
  if json then
    let fields =
      (match tracer with Some tr -> [ ("trace", Trace.to_json tr) ] | None -> [])
      @
      match metrics with Some m -> [ ("metrics", Metrics.to_json m) ] | None -> []
    in
    (* Single line so tooling can [tail -1] it out of the mixed output. *)
    print_endline (Json.to_string (Json.Obj fields))

let pp_rounds (r : Lbcc.rounds_report) =
  Printf.printf "rounds: %d total (B = %d bits/message)\n" r.Lbcc.total r.Lbcc.bandwidth;
  List.iter (fun (label, rds) -> Printf.printf "  %-28s %d\n" label rds) r.Lbcc.breakdown

(* ------------------------------------------------------------------ *)
(* Fault injection and retry arguments                                 *)

let drop_prob_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "drop-prob" ] ~docv:"P"
        ~doc:"Per-delivery message drop probability (fault injection).")

let dup_prob_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "dup-prob" ] ~docv:"P"
        ~doc:"Per-delivery message duplication probability (fault injection).")

let crash_conv =
  let parse s =
    match String.split_on_char '@' s with
    | [ v; r ] -> (
        match (int_of_string_opt v, int_of_string_opt r) with
        | Some v, Some r -> Ok (v, r)
        | _ -> Error (`Msg "expected V@R (vertex@superstep)"))
    | _ -> Error (`Msg "expected V@R (vertex@superstep)")
  in
  Arg.conv (parse, fun ppf (v, r) -> Format.fprintf ppf "%d@%d" v r)

let crash_arg =
  Arg.(
    value
    & opt_all crash_conv []
    & info [ "crash" ] ~docv:"V@R"
        ~doc:"Crash-stop vertex V at superstep R; repeatable.")

let fault_seed_arg =
  Arg.(
    value
    & opt int 1
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Seed of the deterministic fault schedule.")

let corrupt_prob_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "corrupt-prob" ] ~docv:"P"
        ~doc:
          "Per-delivery payload-corruption probability (seeded bit-flip \
           fault injection).")

let byz_count_arg =
  Arg.(
    value
    & opt int 0
    & info [ "byz-count" ] ~docv:"F"
        ~doc:
          "Make the first F vertices Byzantine: they equivocate — tamper \
           each delivery independently per receiver — with probability \
           $(b,--byz-prob).")

let byz_prob_arg =
  Arg.(
    value
    & opt float 0.15
    & info [ "byz-prob" ] ~docv:"P"
        ~doc:
          "Per-delivery tamper probability of a Byzantine sender (only \
           meaningful with $(b,--byz-count) > 0).")

let make_faults drop_prob dup_prob crashes fault_seed corrupt_prob byz_count
    byz_prob =
  let bad fmt = Printf.ksprintf (fun m -> Error (`Msg m)) fmt in
  if drop_prob < 0.0 || drop_prob >= 1.0 then
    bad "--drop-prob must be in [0, 1) (got %g)" drop_prob
  else if dup_prob < 0.0 || dup_prob >= 1.0 then
    bad "--dup-prob must be in [0, 1) (got %g)" dup_prob
  else if corrupt_prob < 0.0 || corrupt_prob >= 1.0 then
    bad "--corrupt-prob must be in [0, 1) (got %g)" corrupt_prob
  else if byz_prob < 0.0 || byz_prob >= 1.0 then
    bad "--byz-prob must be in [0, 1) (got %g)" byz_prob
  else if byz_count < 0 then bad "--byz-count must be >= 0 (got %d)" byz_count
  else if
    drop_prob = 0.0 && dup_prob = 0.0 && crashes = [] && corrupt_prob = 0.0
    && byz_count = 0
  then Ok None
  else
    Ok
      (Some
         (Fault.create ~seed:fault_seed
            (Fault.spec ~drop_prob ~duplicate_prob:dup_prob ~crashes
               ~corrupt_prob
               ~byzantine:(List.init byz_count Fun.id)
               ~byz_prob ())))

let faults_term =
  Term.term_result
    Term.(
      const make_faults $ drop_prob_arg $ dup_prob_arg $ crash_arg
      $ fault_seed_arg $ corrupt_prob_arg $ byz_count_arg $ byz_prob_arg)

(* The delivery tiers' command-line spellings, shared by every
   [--reliability] flag. *)
let tier_conv =
  Arg.enum
    [ ("none", Model.None);
      ("crash", Model.Crash_safe);
      ("byzantine", Model.Byzantine_safe) ]

(* Pipeline commands cost (rather than simulate) a delivery tier: the
   context's reliability field makes [Lbcc] surcharge every protocol round
   with the tier's recovery overhead (DESIGN.md §9). *)
let ctx_reliability_arg =
  Arg.(
    value
    & opt tier_conv Model.None
    & info [ "reliability" ] ~docv:"TIER"
        ~doc:
          "Delivery tier the run is costed under: none, crash \
           (ack/retransmit) or byzantine (echo-quorum).  The reported \
           rounds include the tier's per-superstep recovery overhead under \
           its own label.")

let max_retries_arg =
  let arg =
    Arg.(
      value & opt int 0
      & info [ "max-retries" ] ~docv:"N"
          ~doc:
            "Retry a run that fails its certificate up to N times, each \
             with a fresh seed split from $(b,--seed).  Every run prints \
             its ok/degraded/failed verdict and attempt log.")
  in
  let validate n =
    if n < 0 then Error (`Msg "--max-retries must be >= 0") else Ok n
  in
  Term.term_result Term.(const validate $ arg)

(* Every certified run ends here: the verdict and attempt log, the result
   when there is one, then the observability output (last, so [tail -1]
   still extracts the JSON line).  A [Failed] verdict — every attempt
   raised — exits 3, the internal-error code an uncaught exception gets. *)
let finish name ~trace ~json tracer metrics report (o : _ Resilient.outcome) =
  Printf.printf "%s: %s\n%!" name (Format.asprintf "%a" Resilient.pp o);
  Option.iter report o.Resilient.value;
  emit_obs ~trace ~json tracer metrics;
  if o.Resilient.verdict = Resilient.Failed then begin
    Printf.eprintf "lbcc %s: every attempt raised\n" name;
    exit 3
  end

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)

let sparsify_cmd =
  let epsilon =
    Arg.(
      value & opt positive_float 0.5
      & info [ "epsilon" ] ~doc:"Target spectral error.")
  in
  let t =
    Arg.(
      value & opt (some positive_int) None
      & info [ "t"; "bundle" ] ~doc:"Bundle size override.")
  in
  let run seed n family w_max epsilon t max_retries reliability trace json =
    let g = make_graph family seed n w_max in
    Printf.printf "input: n=%d m=%d\n" (Graph.n g) (Graph.m g);
    let tracer, metrics = make_obs ~trace ~json in
    let ctx = Lbcc.Ctx.make ~seed ?tracer ?metrics ~reliability () in
    let report (r : Lbcc.sparsifier_result) =
      Printf.printf "sparsifier: m=%d  certified eps=%.4f  max out-degree=%d\n"
        (Graph.m r.Lbcc.sparsifier) r.Lbcc.epsilon_achieved r.Lbcc.out_degree_max;
      pp_rounds r.Lbcc.rounds
    in
    finish "sparsify" ~trace ~json tracer metrics report
      (Resilient.sparsify ~ctx ~epsilon ?t ~max_retries g)
  in
  Cmd.v
    (Cmd.info "sparsify" ~doc:"Spectral sparsification (Theorem 1.2)")
    (with_domains
       Term.(
         const run $ seed_arg $ n_arg $ family_arg $ w_max_arg $ epsilon $ t
         $ max_retries_arg $ ctx_reliability_arg $ trace_arg $ json_arg))

(* Deterministic batch of zero-sum right-hand sides, all drawn from one
   stream so every b differs. *)
let make_rhs ~seed ~nv k =
  let prng = Prng.create (seed + 1) in
  List.init k (fun _ ->
      Vec.mean_center (Vec.init nv (fun _ -> Prng.gaussian prng)))

let solve_cmd =
  let eps =
    Arg.(value & opt positive_float 1e-8 & info [ "eps" ] ~doc:"Solution accuracy.")
  in
  let batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"K"
          ~doc:
            "Solve K right-hand sides through one prepared handle \
             (preprocessing paid once, queries batched across the worker \
             domains).  K=1 uses the single-solve path.")
  in
  let run seed n family w_max eps batch max_retries reliability trace json =
    let g = make_graph family seed n w_max in
    let nv = Graph.n g in
    Printf.printf "input: n=%d m=%d\n" nv (Graph.m g);
    let report (r : Lbcc.laplacian_result) =
      Printf.printf
        "solved L x = b: residual %.2e in %d iterations\n\
         rounds: %d preprocessing + %d per solve\n"
        r.Lbcc.residual r.Lbcc.iterations r.Lbcc.preprocessing_rounds
        r.Lbcc.solve_rounds
    in
    let tracer, metrics = make_obs ~trace ~json in
    let ctx = Lbcc.Ctx.make ~seed ?tracer ?metrics ~reliability () in
    if batch > 1 then begin
      if max_retries > 0 then
        prerr_endline "warning: --max-retries is ignored with --batch";
      let p, hit = Lbcc.Prepared.create_cached ~ctx g in
      let qs = Lbcc.Prepared.solve_many ~eps p (make_rhs ~seed ~nv batch) in
      let worst =
        List.fold_left
          (fun a (q : Lbcc.Prepared.query_result) -> Float.max a q.residual)
          0.0 qs
      in
      Printf.printf "prepared: fingerprint=%s  cache %s\n"
        (Lbcc.Prepared.fingerprint_hex p)
        (if hit then "hit" else "miss");
      Printf.printf
        "batch of %d solves: worst residual %.2e, %d rounds per query\n"
        batch worst
        (match qs with q :: _ -> q.Lbcc.Prepared.rounds | [] -> 0);
      Printf.printf
        "rounds: %d preprocessing (paid once) + %d query; amortized %.1f \
         per query\n"
        (Lbcc.Prepared.preprocessing_rounds p)
        (Lbcc.Prepared.query_rounds p)
        (Lbcc.Prepared.amortized_rounds_per_query p);
      emit_obs ~trace ~json tracer metrics
    end
    else
      let b = List.hd (make_rhs ~seed ~nv 1) in
      finish "solve" ~trace ~json tracer metrics report
        (Resilient.solve_laplacian ~ctx ~eps ~max_retries g ~b)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Laplacian solving (Theorem 1.3)")
    (with_domains
       Term.(
         const run $ seed_arg $ n_arg $ family_arg $ w_max_arg $ eps $ batch
         $ max_retries_arg $ ctx_reliability_arg $ trace_arg $ json_arg))

let prepare_cmd =
  let queries =
    Arg.(
      value & opt int 0
      & info [ "queries" ] ~docv:"K"
          ~doc:
            "After preparing, answer K random solve queries through the \
             handle and report the amortized rounds per query.")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"R"
          ~doc:
            "Prepare R times; every call after the first hits the handle \
             cache (same graph fingerprint and seed).")
  in
  let run seed n family w_max queries repeat trace json =
    let g = make_graph family seed n w_max in
    let nv = Graph.n g in
    Printf.printf "input: n=%d m=%d\n" nv (Graph.m g);
    let tracer, metrics = make_obs ~trace ~json in
    let ctx = Lbcc.Ctx.make ~seed ?tracer ?metrics () in
    let handle = ref None in
    for i = 1 to Stdlib.max 1 repeat do
      let p, hit = Lbcc.Prepared.create_cached ~ctx g in
      Printf.printf "prepare[%d]: %s\n" i
        (if hit then "cache hit" else "cache miss (ran preprocessing)");
      handle := Some p
    done;
    let p =
      (* [repeat] is clamped to >= 1 above, so the loop body always ran. *)
      match !handle with
      | Some p -> p
      | None -> failwith "lbcc prepare: internal error, no handle prepared"
    in
    let solver = Lbcc.Prepared.solver p in
    Printf.printf
      "fingerprint: %s\n\
       sparsifier: m=%d  certified kappa=%.3f\n\
       preprocessing: %d rounds, %d bits (paid once per handle)\n"
      (Lbcc.Prepared.fingerprint_hex p)
      (Graph.m (Lbcc_laplacian.Solver.sparsifier solver))
      (Lbcc_laplacian.Solver.kappa solver)
      (Lbcc.Prepared.preprocessing_rounds p)
      (Lbcc.Prepared.preprocessing_bits p);
    if queries > 0 then begin
      let qs = Lbcc.Prepared.solve_many p (make_rhs ~seed ~nv queries) in
      let worst =
        List.fold_left
          (fun a (q : Lbcc.Prepared.query_result) -> Float.max a q.residual)
          0.0 qs
      in
      Printf.printf
        "queries: %d answered, worst residual %.2e, %d rounds each; \
         amortized %.1f rounds per query\n"
        (Lbcc.Prepared.queries p) worst
        (match qs with q :: _ -> q.Lbcc.Prepared.rounds | [] -> 0)
        (Lbcc.Prepared.amortized_rounds_per_query p)
    end;
    let st = Lbcc.Cache.stats (Lbcc.Prepared.shared_cache ()) in
    Printf.printf "cache: %d/%d entries, %d hits, %d misses, %d evictions\n"
      st.Lbcc.Cache.size st.Lbcc.Cache.capacity st.Lbcc.Cache.hits
      st.Lbcc.Cache.misses st.Lbcc.Cache.evictions;
    emit_obs ~trace ~json tracer metrics
  in
  Cmd.v
    (Cmd.info "prepare"
       ~doc:
         "Build (or fetch from cache) a prepared Laplacian operator: \
          Theorem 1.3 preprocessing once, then cheap per-query solves")
    (with_domains
       Term.(
         const run $ seed_arg $ n_arg $ family_arg $ w_max_arg $ queries
         $ repeat $ trace_arg $ json_arg))

(* lbcc update: drive an incremental sparsifier sketch through a seeded
   delta stream, certifying every generation and comparing the incremental
   update's rounds against a full rebuild of the accumulated graph. *)
let update_cmd =
  let steps =
    Arg.(
      value & opt int 4
      & info [ "steps" ] ~docv:"R" ~doc:"Deltas applied to the sketch.")
  in
  let ops =
    Arg.(
      value & opt int 8
      & info [ "ops" ] ~docv:"K"
          ~doc:
            "Ops per delta: K/2 inserts, K/4 deletes, the rest reweights \
             (connectivity-preserving, seeded).")
  in
  let epsilon =
    Arg.(
      value & opt positive_float 0.5
      & info [ "epsilon" ] ~doc:"Sketch target spectral error.")
  in
  let run seed n family w_max steps ops epsilon json =
    let module Sparsify = Lbcc_sparsifier.Sparsify in
    let module Certify = Lbcc_laplacian.Certify in
    let module Exact = Lbcc_laplacian.Exact in
    let g = make_graph family seed n w_max in
    Printf.printf "input: n=%d m=%d\n" (Graph.n g) (Graph.m g);
    let prng = Prng.create seed in
    let delta_prng = Prng.create (seed + 1) in
    let sk = ref (Sparsify.sketch ~prng ~graph:g ~epsilon ()) in
    Printf.printf "sketch: m=%d in %d rounds (full build)\n"
      (Graph.m !sk.Sparsify.sparsifier)
      !sk.Sparsify.last_rounds;
    Printf.printf "%4s %6s %6s %8s %8s %10s %10s %8s\n" "gen" "|d|" "m"
      "passed" "resamp" "upd-rnds" "full-rnds" "eps";
    let rows = ref [] in
    let certified = ref true in
    for _step = 1 to Stdlib.max 1 steps do
      let d =
        Gen.delta ~w_max ~connected:true delta_prng ~graph:!sk.Sparsify.base
          ~inserts:(Stdlib.max 1 (ops / 2))
          ~deletes:(ops / 4)
          ~reweights:(Stdlib.max 0 (ops - (ops / 2) - (ops / 4)))
          ()
      in
      sk := Sparsify.update ~prng !sk d;
      (* What a from-scratch build of the accumulated graph would cost —
         same prng discipline as the sketch's own full-build fallback. *)
      let full =
        Sparsify.run ~prng:(Prng.create seed) ~graph:!sk.Sparsify.base
          ~epsilon ()
      in
      let cert =
        Certify.bound (Exact.factor !sk.Sparsify.base)
          (Exact.factor !sk.Sparsify.sparsifier)
      in
      (* KPPS composition: each re-sampling generation may multiply the
         error, so judge against the composed budget, not the per-step
         epsilon. *)
      let budget =
        ((1.0 +. epsilon) ** float_of_int (1 + !sk.Sparsify.generation)) -. 1.0
      in
      let ok = cert.Certify.epsilon_achieved <= budget in
      if not ok then certified := false;
      Printf.printf "%4d %6d %6d %8d %8d %10d %10d %7.3f%s\n"
        !sk.Sparsify.generation (Graph.Delta.size d)
        (Graph.m !sk.Sparsify.sparsifier)
        !sk.Sparsify.passed !sk.Sparsify.resampled !sk.Sparsify.last_rounds
        full.Sparsify.rounds cert.Certify.epsilon_achieved
        (if ok then "" else " FAIL");
      rows :=
        Json.Obj
          [
            ("generation", Json.Int !sk.Sparsify.generation);
            ("delta_ops", Json.Int (Graph.Delta.size d));
            ("update_rounds", Json.Int !sk.Sparsify.last_rounds);
            ("full_rounds", Json.Int full.Sparsify.rounds);
            ("epsilon_achieved", Json.Float cert.Certify.epsilon_achieved);
            ("epsilon_budget", Json.Float budget);
          ]
        :: !rows
    done;
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("steps", Json.Arr (List.rev !rows));
                ("certified", Json.Bool !certified);
              ]));
    if not !certified then begin
      prerr_endline "lbcc update: a generation exceeded its error budget";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Mutate a graph through Graph.Delta batches, maintaining the \
          sparsifier incrementally (certified each generation)")
    (with_domains
       Term.(
         const run $ seed_arg $ n_arg $ family_arg $ w_max_arg $ steps $ ops
         $ epsilon $ json_arg))

let spanner_cmd =
  let k =
    Arg.(
      value & opt positive_int 3
      & info [ "k"; "stretch" ] ~doc:"Stretch parameter (2k-1).")
  in
  let edge_prob =
    Arg.(
      value & opt probability 1.0
      & info [ "edge-prob" ] ~doc:"Edge survival probability.")
  in
  let run seed n family w_max k edge_prob =
    let g = make_graph family seed n w_max in
    Printf.printf "input: n=%d m=%d\n" (Graph.n g) (Graph.m g);
    let p = Array.make (Graph.m g) edge_prob in
    let r = Lbcc_spanner.Spanner.run ~prng:(Prng.create seed) ~graph:g ~p ~k () in
    Printf.printf
      "spanner: |F+|=%d |F-|=%d  stretch=%.2f (bound %d)  rounds=%d  views agree=%b\n"
      (List.length r.Lbcc_spanner.Spanner.fplus)
      (List.length r.Lbcc_spanner.Spanner.fminus)
      (Lbcc_spanner.Spanner.stretch g r)
      ((2 * k) - 1)
      r.Lbcc_spanner.Spanner.rounds r.Lbcc_spanner.Spanner.views_agree
  in
  Cmd.v
    (Cmd.info "spanner" ~doc:"Baswana-Sen spanner with probabilistic edges (Section 3.1)")
    (with_domains
       Term.(const run $ seed_arg $ n_arg $ family_arg $ w_max_arg $ k $ edge_prob))

let flow_cmd =
  let density = Arg.(value & opt float 0.3 & info [ "density" ] ~doc:"Arc density.") in
  let max_capacity =
    Arg.(value & opt int 6 & info [ "max-capacity" ] ~doc:"Maximum arc capacity.")
  in
  let max_cost = Arg.(value & opt int 5 & info [ "max-cost" ] ~doc:"Maximum arc cost.") in
  let input =
    Arg.(
      value
      & opt (some file) None
      & info [ "input" ] ~docv:"FILE"
          ~doc:"Read the network from FILE (see Network_io format) instead of \
                generating one.")
  in
  let output_dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "output-dot" ] ~docv:"FILE"
          ~doc:"Write the network with the optimal flow as Graphviz DOT.")
  in
  let run seed n density max_capacity max_cost input output_dot max_retries
      reliability trace json =
    let net =
      match input with
      | Some path -> (
          (* A file that does not parse is bad input, not a crash. *)
          try Lbcc_flow.Network_io.load path
          with Failure msg | Invalid_argument msg ->
            Printf.eprintf "lbcc flow: --input %s: %s\n" path msg;
            exit 2)
      | None ->
          Lbcc_flow.Network.random (Prng.create seed) ~n ~density ~max_capacity
            ~max_cost
    in
    Printf.printf "network: n=%d m=%d\n" net.Lbcc_flow.Network.n
      (Lbcc_flow.Network.m net);
    let report (r : Lbcc.flow_result) =
      Printf.printf
        "min-cost max-flow: value=%d cost=%d  exact vs baseline=%b\n\
         IPM iterations=%d  total rounds=%d\n"
        r.Lbcc.value r.Lbcc.cost r.Lbcc.exact r.Lbcc.ipm_iterations
        r.Lbcc.rounds.Lbcc.total;
      match output_dot with
      | Some path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              output_string oc (Lbcc_flow.Network_io.to_dot ~flow:r.Lbcc.flow net));
          Printf.printf "wrote %s\n" path
      | None -> ()
    in
    let tracer, metrics = make_obs ~trace ~json in
    let ctx = Lbcc.Ctx.make ~seed ?tracer ?metrics ~reliability () in
    finish "flow" ~trace ~json tracer metrics report
      (Resilient.min_cost_max_flow ~ctx ~max_retries net)
  in
  Cmd.v
    (Cmd.info "flow" ~doc:"Exact minimum-cost maximum flow (Theorem 1.1)")
    (with_domains
       Term.(
         const run $ seed_arg $ n_arg $ density $ max_capacity $ max_cost $ input
         $ output_dot $ max_retries_arg $ ctx_reliability_arg $ trace_arg
         $ json_arg))

let dist_cmd =
  let algo_arg =
    Arg.(
      value
      & opt (enum [ ("bfs", `Bfs); ("sssp", `Sssp); ("leader", `Leader) ]) `Bfs
      & info [ "algo" ] ~docv:"ALGO" ~doc:"Protocol: bfs, sssp or leader.")
  in
  let model_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("bc", Model.broadcast_congest);
               ("bcc", Model.broadcast_congested_clique) ])
          Model.broadcast_congest
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Broadcast model: bc (Broadcast CONGEST) or bcc (Broadcast \
             Congested Clique).")
  in
  let source_arg =
    Arg.(
      value & opt int 0
      & info [ "source" ] ~docv:"V" ~doc:"Source vertex for bfs/sssp.")
  in
  let patience_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "patience" ] ~docv:"K"
          ~doc:
            "Reliable broadcast suspects a neighbor crashed after K silent \
             supersteps.")
  in
  let reliability_arg =
    Arg.(
      value
      & opt (some tier_conv) None
      & info [ "reliability" ] ~docv:"TIER"
          ~doc:
            "Delivery tier: none (raw engine), crash (ack/retransmit \
             reliable broadcast) or byzantine (echo-quorum delivery \
             tolerating f < n/3 equivocating vertices; needs \
             $(b,--model bcc)).  Default: crash when faults are injected, \
             else none.")
  in
  let run seed n family w_max algo model source patience reliability faults =
    let g = make_graph family seed n w_max in
    let nv = Graph.n g in
    if source < 0 || source >= nv then begin
      Printf.eprintf "lbcc dist: --source %d is not a vertex (0..%d)\n" source
        (nv - 1);
      exit 2
    end;
    let tier =
      match reliability with
      | Some t -> t
      | None -> if faults = None then Model.None else Model.Crash_safe
    in
    if tier = Model.Byzantine_safe && model <> Model.broadcast_congested_clique
    then begin
      prerr_endline
        "lbcc dist: --reliability byzantine needs the all-to-all broadcast \
         model (--model bcc)";
      exit 2
    end;
    Printf.printf "input: n=%d m=%d  model=%s  reliability=%s\n" nv (Graph.m g)
      (Model.name model)
      (Model.reliability_name tier);
    (match faults with
    | Some f -> Printf.printf "faults: %s\n" (Format.asprintf "%a" Fault.pp f)
    | None -> Printf.printf "faults: none\n");
    let acct = Rounds.create ~bandwidth:(Model.bandwidth ~n:nv) in
    (* Each protocol runs twice: once under the selected tier with the
       injected faults, and once lossless with the same protocol seed, for
       the recovery check. *)
    let diag =
      match algo with
      | `Bfs ->
          let baseline = Bfs.run ~model ~graph:g ~source () in
          let r =
            Bfs.run ~accountant:acct ?faults ?patience ~reliability:tier ~model
              ~graph:g ~source ()
          in
          let reached =
            Array.fold_left
              (fun k d -> if d < max_int then k + 1 else k)
              0 r.Bfs.dist
          in
          Printf.printf
            "bfs: reached %d/%d vertices  supersteps=%d  converged=%b\n\
             matches lossless run: %b\n"
            reached nv r.Bfs.supersteps r.Bfs.converged
            (r.Bfs.dist = baseline.Bfs.dist);
          r.Bfs.byz
      | `Sssp ->
          let baseline = Sssp.run ~model ~graph:g ~source () in
          let r =
            Sssp.run ~accountant:acct ?faults ?patience ~reliability:tier ~model
              ~graph:g ~source ()
          in
          let reached =
            Array.fold_left
              (fun k d -> if Float.is_finite d then k + 1 else k)
              0 r.Sssp.dist
          in
          Printf.printf
            "sssp: reached %d/%d vertices  supersteps=%d  converged=%b\n\
             matches lossless run: %b\n"
            reached nv r.Sssp.supersteps r.Sssp.converged
            (r.Sssp.dist = baseline.Sssp.dist);
          r.Sssp.byz
      | `Leader ->
          let baseline = Leader.run ~model ~graph:g () in
          let r =
            Leader.run ~accountant:acct ?faults ?patience ~reliability:tier
              ~model ~graph:g ()
          in
          Printf.printf
            "leader: elected %d  supersteps=%d  converged=%b\n\
             matches lossless run: %b\n"
            r.Leader.leader r.Leader.supersteps r.Leader.converged
            (r.Leader.leader = baseline.Leader.leader);
          r.Leader.byz
    in
    Printf.printf "rounds: %d total (B = %d bits/message)\n" (Rounds.rounds acct)
      (Rounds.bandwidth acct);
    List.iter
      (fun (label, rds) -> Printf.printf "  %-28s %d\n" label rds)
      (Rounds.breakdown acct);
    match diag with
    | None -> ()
    | Some d ->
        Printf.printf "%s\n" (Format.asprintf "%a" Byzantine.Diag.pp d);
        (* A violated quorum is a failed delivery claim: the adversary beat
           the f < n/3 bound, detectably (DESIGN.md §8 exit contract). *)
        if not (Byzantine.Diag.ok d) then exit 1
  in
  Cmd.v
    (Cmd.info "dist"
       ~doc:
         "Distributed protocols (BFS / SSSP / leader election) under fault \
          injection, with reliable-broadcast recovery")
    (with_domains
       Term.(
         const run $ seed_arg $ n_arg $ family_arg $ w_max_arg $ algo_arg
         $ model_arg $ source_arg $ patience_arg $ reliability_arg
         $ faults_term))

let gen_cmd =
  let kind =
    Arg.(
      value
      & opt (enum [ ("graph", `G); ("network", `N) ]) `G
      & info [ "kind" ] ~doc:"What to generate: graph or network.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "output" ] ~docv:"FILE" ~doc:"Output file path.")
  in
  let run seed n family w_max kind out =
    match kind with
    | `G ->
        let g = make_graph family seed n w_max in
        Lbcc_graph.Io.save_graph out g;
        Printf.printf "wrote graph n=%d m=%d to %s\n" (Graph.n g) (Graph.m g) out
    | `N ->
        let net =
          Lbcc_flow.Network.random (Prng.create seed) ~n ~density:0.3
            ~max_capacity:w_max ~max_cost:w_max
        in
        Lbcc_flow.Network_io.save out net;
        Printf.printf "wrote network n=%d m=%d to %s\n" net.Lbcc_flow.Network.n
          (Lbcc_flow.Network.m net) out
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a graph or flow network file")
    Term.(const run $ seed_arg $ n_arg $ family_arg $ w_max_arg $ kind $ out)

let report_cmd =
  let files =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"FILE" ~doc:"BENCH_<EXP>.json files to check.")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Check each file against the lbcc-bench/1 schema (required keys, \
             field types, within_bound consistency).  This is currently the \
             only mode and may be omitted.")
  in
  let run _validate files =
    let bad = ref 0 in
    List.iter
      (fun path ->
        let contents =
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        match Json.of_string contents with
        | exception Json.Parse_error e ->
            incr bad;
            Printf.printf "%s: invalid JSON: %s\n" path e
        | j -> (
            match Report.validate j with
            | Ok () ->
                let within =
                  match Json.member "within_bound" j with
                  | Some (Json.Bool b) -> b
                  | _ -> false
                in
                Printf.printf "%s: ok (within_bound=%b)\n" path within
            | Error e ->
                incr bad;
                Printf.printf "%s: schema error: %s\n" path e))
      files;
    if !bad > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Validate machine-readable benchmark reports (lbcc-bench/1)")
    Term.(const run $ validate $ files)

let main_cmd =
  let doc = "The Laplacian paradigm in the Broadcast Congested Clique" in
  Cmd.group
    (Cmd.info "lbcc" ~version:Lbcc.version ~doc)
    [ sparsify_cmd; solve_cmd; prepare_cmd; update_cmd; spanner_cmd;
      flow_cmd; dist_cmd; gen_cmd; report_cmd ]

(* Exit-code contract (DESIGN.md §8): 0 success; 1 a checked claim or report
   validation failed (the [exit 1] calls inside the commands); 2 usage
   error; 3 internal error.  Cmdliner reports usage problems as 123/124 —
   fold those into the contract.  Exceptions are caught here (not by
   cmdliner) so an internal error exits with 3. *)
let () =
  match
    try Cmd.eval ~catch:false main_cmd with
    | e ->
        Printf.eprintf "lbcc: internal error: %s\n" (Printexc.to_string e);
        3
  with
  | 0 -> exit 0
  | 123 | 124 -> exit 2
  | 125 -> exit 3
  | n -> exit n
