(* The round-based runner shared by the prepare, mincostflow and dist
   workloads.  A round is the workload's fixed list of operations; a run
   repeats whole rounds, so the share of failed operations and the exact
   counters per operation do not depend on how many rounds fit in the run.
   Each operation is timed alone; its output check runs after the clock
   stops. *)

open Common

type op = {
  label : string;  (** names the instance (size, seed) in failure lines *)
  cls : string;  (** the operation's class (kind and size) *)
  known_fault : bool;
      (** fails today through a fault the README names; a failed check is
          counted in [failed] without making the run incorrect *)
  run : tracer option -> unit -> verdict;
      (** [run tracer] performs the operation (timed) and returns its
          check (untimed) *)
}

type sample = { op : int; wall : float; v : verdict }

type phase = {
  mutable samples : sample list;  (** newest first *)
  mutable minor_words : float;
  mutable major_collections : int;
}

let new_phase () = { samples = []; minor_words = 0.0; major_collections = 0 }

let setup_reps = 3

(* Builds the environment [setup_reps] times, each followed by [warm] (one
   untimed warm-up operation), and reports the median build time; keeps
   the last environment. *)
let setup ~build ~warm =
  let times = ref [] and env = ref None in
  for _ = 1 to setup_reps do
    env := None;
    Gc.compact ();
    let t0 = now () in
    let e = build () in
    warm e;
    times := (now () -. t0) :: !times;
    env := Some e
  done;
  (Option.get !env, median !times)

let run_round tracer ops p =
  let g0 = gc_mark () in
  Array.iteri
    (fun i o ->
      let t0 = now () in
      let check =
        match span tracer "op" (fun () -> o.run tracer) with
        | check -> check
        | exception e ->
            let why = Printexc.to_string e in
            fun () -> fail ~rounds:0 ~bits:0 ("raised " ^ why)
      in
      let wall = now () -. t0 in
      let v = try check () with e -> fail ~rounds:0 ~bits:0 (Printexc.to_string e) in
      p.samples <- { op = i; wall; v } :: p.samples)
    ops;
  let g1 = gc_mark () in
  p.minor_words <- p.minor_words +. (g1.minor -. g0.minor);
  p.major_collections <- p.major_collections + (g1.major - g0.major)

(* Whole rounds, as many as [seconds] holds at the workload's nominal
   round time [round_s] (at least one), so the number of operations depends
   on --seconds alone and never on the host's speed.  With a tracer, traced
   rounds alternate with untraced ones, half the rounds each, so both
   halves see the same heap and cache history. *)
let timed ?tracer ~round_s ~seconds ops =
  let plain = new_phase () and traced = new_phase () in
  let share = match tracer with None -> 1.0 | Some _ -> 2.0 in
  let total = Stdlib.max 1 (int_of_float (Float.round (seconds /. share /. round_s))) in
  for _ = 1 to total do
    run_round None ops plain;
    if tracer <> None then run_round tracer ops traced
  done;
  plain.samples <- List.rev plain.samples;
  traced.samples <- List.rev traced.samples;
  (plain, traced)

let walls p = List.map (fun s -> s.wall) p.samples
let op_seconds p = sum (walls p)
let n_samples p = List.length p.samples

let failures p = List.filter (fun s -> not s.v.ok) p.samples

(* Prints each failing operation once, with its instance, and says whether
   every failure is a known fault. *)
let report_failures ~workload ops p =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen s.op) then begin
        Hashtbl.add seen s.op ();
        Printf.printf "FAILED workload=%s op=%d %s%s: %s\n" workload s.op
          ops.(s.op).label
          (if ops.(s.op).known_fault then " (known fault)" else "")
          s.v.why
      end)
    (failures p);
  List.for_all (fun s -> ops.(s.op).known_fault) (failures p)

(* One line per operation of the round: its median wall time and its exact
   counters, so drift in a count reads as nondeterminism, not noise. *)
let print_ops ops p =
  Array.iteri
    (fun i o ->
      let mine = List.filter (fun s -> s.op = i) p.samples in
      match mine with
      | [] -> ()
      | s :: _ ->
          Printf.printf "op %d %s: median %.4f s over %d, rounds=%d bits=%d\n" i o.label
            (median (List.map (fun s -> s.wall) mine))
            (List.length mine) s.v.rounds s.v.bits)
    ops

let print_counters p =
  let n = float_of_int (n_samples p) in
  let rounds = List.fold_left (fun a s -> a + s.v.rounds) 0 p.samples
  and bits = List.fold_left (fun a s -> a + s.v.bits) 0 p.samples in
  Printf.printf
    "counters: ops=%d rounds=%d bits=%d rounds_per_op=%.1f bits_per_op=%.1f \
     minor_words_per_op=%.0f major_collections_per_op=%.4f\n"
    (n_samples p) rounds bits
    (float_of_int rounds /. n) (float_of_int bits /. n)
    (p.minor_words /. n)
    (float_of_int p.major_collections /. n)

let group key p =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let k = key s in
      Hashtbl.replace tbl k (s.wall :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
    p.samples;
  Hashtbl.fold (fun _ ws acc -> median ws :: acc) tbl []

(* time_to_solution_s is the median over operations of each one's median
   over the run's rounds, so one slow moment of the host moves one sample
   of one operation.  A round holds fewer than 100 operations, so its 99th
   percentile lies in the slowest class of operation; latency_p99_s is that
   class's median latency, which rests on several operations rather than
   on the single slowest sample. *)
let end_to_end ~ops ~setup_s p =
  let n = float_of_int (n_samples p) in
  let ok = List.length (List.filter (fun s -> s.v.ok) p.samples) in
  let rounds = List.fold_left (fun a s -> a + s.v.rounds) 0 p.samples
  and bits = List.fold_left (fun a s -> a + s.v.bits) 0 p.samples in
  let per_op = group (fun s -> string_of_int s.op) p in
  let per_class = group (fun s -> ops.(s.op).cls) p in
  [
    m "setup_s" "s" setup_s;
    m "time_to_solution_s" "s" (median per_op);
    m "throughput_ops_s" "ops/s" (float_of_int ok /. op_seconds p);
    m "latency_p99_s" "s" (List.fold_left Float.max 0.0 per_class);
    m "rounds_per_op" "rounds" (float_of_int rounds /. n);
    m "bits_per_op" "bits" (float_of_int bits /. n);
    m "peak_rss_mb" "MiB" (peak_rss_mb ());
  ]

(* The whole run of one workload.  Untraced: the end-to-end metrics.
   Traced: untraced and traced rounds alternate, the same number of each;
   [layers] turns the traced span tree and samples into per-layer values,
   and the wall ratio of the two halves is the tracing overhead.  A traced
   operation whose rounds or bits differ from its untraced twin makes the
   run incorrect: the traced path has drifted from the front door. *)
let main ~(args : args) ~round_s ~build ~layers =
  let warm ops = ignore (ops.(0).run None : unit -> verdict) in
  let ops, setup_s = setup ~build ~warm in
  if not args.trace then begin
    let p, _ = timed ~round_s ~seconds:args.seconds ops in
    print_ops ops p;
    print_counters p;
    let expected = report_failures ~workload:args.workload ops p in
    print_result ~correct:expected ~attempted:(n_samples p)
      ~failed:(List.length (failures p))
      (end_to_end ~ops ~setup_s p)
  end
  else begin
    let tracer = create_tracer () in
    let plain, traced = timed ~tracer ~round_s ~seconds:args.seconds ops in
    print_counters plain;
    print_counters traced;
    let same =
      same_counts
        (List.for_all2
           (fun a b -> a.v.rounds = b.v.rounds && a.v.bits = b.v.bits)
           plain.samples traced.samples)
    in
    let ns = nodes tracer in
    write_trace ~workload:args.workload ~seed:args.seed ns;
    let expected =
      report_failures ~workload:args.workload ops plain
      && report_failures ~workload:args.workload ops traced
    in
    let n = float_of_int (n_samples plain) in
    let run_metrics =
      [
        ("gc.minor_mwords_per_op", plain.minor_words /. n /. 1e6);
        ("gc.major_collections_per_op", float_of_int plain.major_collections /. n);
        ("trace.overhead", op_seconds traced /. op_seconds plain);
      ]
    in
    print_result ~correct:(expected && same)
      ~attempted:(n_samples plain + n_samples traced)
      ~failed:(List.length (failures plain) + List.length (failures traced))
      (Layers.complete (run_metrics @ layers ns traced))
  end
