(* Shared machinery of the benchmark: command line, timing, statistics,
   process counters, the result line, and the wall-clock tracer with its
   per-span allocation log, Chrome trace export and per-layer table. *)

module Clock = Lbcc_obs.Clock
module Json = Lbcc_obs.Json
module Trace = Lbcc_obs.Trace

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload prepare|serve|mincostflow|dist --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args argv =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest ->
        (trace := match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0.0 ->
      { workload; seed; seconds; trace }
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (the "exclusive" method of
   Python's statistics.quantiles is not needed for a single median). *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Nearest-rank percentile: with fewer than 100 samples p99 is the slowest
   one. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let sum = List.fold_left ( +. ) 0.0
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Process counters                                                    *)

let now = Clock.now_s

(* High-water resident set (VmHWM), in MiB; 0 where /proc is absent. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
                (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

let nproc () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | ic ->
      let c = ref 0 in
      (try
         while true do
           let l = input_line ic in
           if String.length l >= 9 && String.sub l 0 9 = "processor" then incr c
         done
       with End_of_file -> ());
      close_in ic;
      if !c > 0 then !c else Domain.recommended_domain_count ()

type gc_mark = { minor : float; major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor = Gc.minor_words (); major = s.Gc.major_collections }

(* ------------------------------------------------------------------ *)
(* Operations, verdicts and the result line                            *)

type verdict = { ok : bool; rounds : int; bits : int; why : string }

let pass ~rounds ~bits = { ok = true; rounds; bits; why = "" }
let fail ~rounds ~bits why = { ok = false; rounds; bits; why }

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let print_result ~correct ~attempted ~failed metrics =
  let obj =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun x ->
                 ( x.name,
                   Json.Obj
                     [ ("value", Json.Float x.value); ("unit", Json.String x.unit) ]
                 ))
               metrics) );
      ]
  in
  print_endline (Json.to_string obj)

(* A gaussian right-hand side with zero sum. *)
let zero_sum_rhs prng n =
  let b = Array.init n (fun _ -> Lbcc_util.Prng.gaussian prng) in
  let mu = Array.fold_left ( +. ) 0.0 b /. float_of_int n in
  Array.map (fun x -> x -. mu) b

(* The benchmark's own copy of an input graph, for the checks. *)
let to_oracle g =
  let module G = Lbcc_graph.Graph in
  Oracle.of_triples (G.n g)
    (Array.to_list (Array.map (fun (e : G.edge) -> (e.G.u, e.G.v, e.G.w)) (G.edges g)))

(* ------------------------------------------------------------------ *)
(* Wall-clock tracer with allocation log                               *)

(* [Trace] calls its clock exactly once when a span opens and once when it
   closes.  Logging the minor-word counter beside every clock reading and
   replaying the log in the tree's depth-first open/close order therefore
   gives every span — the program's phase spans and the benchmark's own —
   its wall interval and its minor-word delta. *)
type log = {
  mutable times : Float.Array.t;
  mutable words : Float.Array.t;
  mutable len : int;
}

type tracer = { tr : Trace.t; log : log }

let push l tm w =
  if l.len = Float.Array.length l.times then begin
    let grow a =
      let b = Float.Array.make (2 * Float.Array.length a) 0.0 in
      Float.Array.blit a 0 b 0 l.len;
      b
    in
    l.times <- grow l.times;
    l.words <- grow l.words
  end;
  Float.Array.set l.times l.len tm;
  Float.Array.set l.words l.len w;
  l.len <- l.len + 1

let create_tracer () =
  let log =
    { times = Float.Array.make 4096 0.0; words = Float.Array.make 4096 0.0; len = 0 }
  in
  let clock () =
    let tm = Clock.now_s () in
    push log tm (Gc.minor_words ());
    tm
  in
  { tr = Trace.create ~clock (); log }

let span (tracer : tracer option) name f =
  match tracer with None -> f () | Some t -> Trace.span (Some t.tr) name f

type node = {
  name : string;
  path : string;
  t0 : float;
  t1 : float;
  words : float;  (* minor words allocated inside, children included *)
  rounds : int;
  bits : int;
  supersteps : int;
  attrs : (string * Json.t) list;
  kids : node list;
}

let wall n = n.t1 -. n.t0
let self_wall n = wall n -. sum (List.map wall n.kids)
let self_words n = n.words -. sum (List.map (fun k -> k.words) n.kids)

let nodes t =
  let i = ref 0 in
  let next () =
    let tm = Float.Array.get t.log.times !i
    and w = Float.Array.get t.log.words !i in
    incr i;
    (tm, w)
  in
  let rec build prefix (s : Trace.span) =
    let path = if prefix = "" then s.Trace.name else prefix ^ "/" ^ s.Trace.name in
    let t0, w0 = next () in
    let kids = List.map (build path) (List.rev s.Trace.children) in
    let t1, w1 = next () in
    {
      name = s.Trace.name;
      path;
      t0;
      t1;
      words = w1 -. w0;
      rounds = s.Trace.rounds;
      bits = s.Trace.bits;
      supersteps = s.Trace.supersteps;
      attrs = s.Trace.attrs;
      kids;
    }
  in
  List.map (build "") (List.rev (Trace.root t.tr).Trace.children)

let rec iter_nodes f ns =
  List.iter
    (fun n ->
      f n;
      iter_nodes f n.kids)
    ns

let find_all pred ns =
  let acc = ref [] in
  iter_nodes (fun n -> if pred n then acc := n :: !acc) ns;
  List.rev !acc

let named name ns = find_all (fun n -> n.name = name) ns

(* Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
   event per span on a single track. *)
let write_chrome_trace path ns =
  let origin = match ns with n :: _ -> n.t0 | [] -> 0.0 in
  let events = ref [] in
  iter_nodes
    (fun n ->
      events :=
        Json.Obj
          [
            ("name", Json.String n.name);
            ("ph", Json.String "X");
            ("ts", Json.Float ((n.t0 -. origin) *. 1e6));
            ("dur", Json.Float (wall n *. 1e6));
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ( "args",
              Json.Obj
                ([
                   ("rounds", Json.Int n.rounds);
                   ("bits", Json.Int n.bits);
                   ("minor_words", Json.Float n.words);
                 ]
                @ n.attrs) );
          ]
        :: !events)
    ns;
  let oc = open_out path in
  output_string oc
    (Json.to_string (Json.Obj [ ("traceEvents", Json.Arr (List.rev !events)) ]));
  output_char oc '\n';
  close_out oc

(* Per-layer table: spans grouped by their name path, with call count,
   inclusive and self wall time, and self minor words. *)
let print_layer_table ns =
  let tbl = Hashtbl.create 64 and order = ref [] in
  iter_nodes
    (fun n ->
      let c, incl, self, w =
        match Hashtbl.find_opt tbl n.path with
        | Some x -> x
        | None ->
            order := n.path :: !order;
            (0, 0.0, 0.0, 0.0)
      in
      Hashtbl.replace tbl n.path
        (c + 1, incl +. wall n, self +. self_wall n, w +. self_words n))
    ns;
  Printf.printf "%-58s %8s %11s %11s %13s\n" "span path" "count" "incl s"
    "self s" "self Mwords";
  List.iter
    (fun p ->
      let c, incl, self, w = Hashtbl.find tbl p in
      Printf.printf "%-58s %8d %11.4f %11.4f %13.3f\n" p c incl self (w /. 1e6))
    (List.rev !order)

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* The traced run's output: the per-layer table, then the spans as Chrome
   trace-event JSON under _perfbench/. *)
let write_trace ~workload ~seed ns =
  print_layer_table ns;
  ensure_dir "_perfbench";
  let file = Printf.sprintf "_perfbench/trace-%s-seed%d.json" workload seed in
  write_chrome_trace file ns;
  Printf.printf "chrome trace written to %s\n" file

(* Prints whether the traced run charged exactly the untraced run's rounds
   and bits, and returns it. *)
let same_counts same =
  Printf.printf "traced rounds and bits equal the untraced ones: %b\n" same;
  if not same then print_endline "FAILED traced run: its rounds or bits differ from the untraced run's";
  same
