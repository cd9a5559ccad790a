(* Observability layer: JSON round-trips, tracer span trees, metrics
   registry, and the BENCH_<EXP>.json report schema. *)

module Json = Lbcc_obs.Json
module Trace = Lbcc_obs.Trace
module Metrics = Lbcc_obs.Metrics
module Report = Lbcc_obs.Report
module Rounds = Lbcc_net.Rounds

let json_testable =
  Alcotest.testable
    (fun ppf j -> Format.pp_print_string ppf (Json.to_string j))
    (fun a b -> String.equal (Json.to_string a) (Json.to_string b))

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let roundtrip j = Json.of_string (Json.to_string j)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("null", Json.Null);
        ("bools", Json.Arr [ Json.Bool true; Json.Bool false ]);
        ("int", Json.Int (-42));
        ("big", Json.Int 9007199254740993);
        ("float", Json.Float 0.1);
        ("neg", Json.Float (-1.5e-300));
        ("nested", Json.Obj [ ("empty_arr", Json.Arr []); ("empty_obj", Json.Obj []) ]);
      ]
  in
  Alcotest.check json_testable "compact round-trip" j (roundtrip j);
  Alcotest.check json_testable "pretty round-trip" j
    (Json.of_string (Json.to_string ~pretty:true j))

let test_json_string_escaping () =
  let strings =
    [
      "plain";
      "quote\" backslash\\ slash/";
      "control\n\t\r\b\x0c chars";
      "\x00\x01\x1f low bytes";
      "caf\xc3\xa9 utf8 \xe2\x88\x80";
      "";
    ]
  in
  List.iter
    (fun s ->
      Alcotest.check json_testable
        (Printf.sprintf "escapes %S" s)
        (Json.String s)
        (roundtrip (Json.String s)))
    strings;
  (* \uXXXX decoding, incl. a surrogate pair *)
  Alcotest.check json_testable "unicode escapes"
    (Json.String "A\xc3\xa9\xe2\x82\xac")
    (Json.of_string {|"Aé€"|});
  Alcotest.check json_testable "surrogate pair"
    (Json.String "\xf0\x9d\x84\x9e")
    (Json.of_string {|"𝄞"|})

let test_json_rejects_nonfinite () =
  List.iter
    (fun f ->
      try
        ignore (Json.to_string (Json.Obj [ ("x", Json.Float f) ]));
        Alcotest.fail "non-finite float must not serialize"
      with Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      try
        ignore (Json.of_string s);
        Alcotest.fail (Printf.sprintf "parser accepted %S" s)
      with Json.Parse_error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_json_accessors () =
  let j = Json.Obj [ ("a", Json.Int 3); ("b", Json.Float 2.5) ] in
  Alcotest.(check (option (float 1e-12))) "int member" (Some 3.0)
    (Option.bind (Json.member "a" j) Json.to_float);
  Alcotest.(check (option (float 1e-12))) "float member" (Some 2.5)
    (Option.bind (Json.member "b" j) Json.to_float);
  Alcotest.(check bool) "missing member" true (Json.member "c" j = None)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let test_trace_nested_spans () =
  let tr = Trace.create ~clock:(fun () -> 0.0) () in
  let tracer = Some tr in
  let result =
    Trace.span tracer "outer" (fun () ->
        Trace.add tracer ~rounds:2 ~bits:10 ();
        Trace.span tracer "inner" (fun () ->
            Trace.add tracer ~rounds:3 ~bits:5 ~supersteps:7 ();
            "done")
        )
  in
  Alcotest.(check string) "span returns f's value" "done" result;
  (* Both spans are closed: a raw [add] now lands on the root. *)
  Trace.add tracer ~rounds:1 ();
  Alcotest.(check int) "stack back at the root" 1 (Trace.root tr).Trace.rounds;
  (* Raw [add] is local to the open span: counters land where they were
     added.  Inclusive phase totals come from the accountant bridge, see
     test_trace_accountant_bridge. *)
  match (Trace.root tr).Trace.children with
  | [ outer ] -> (
      Alcotest.(check string) "outer name" "outer" outer.Trace.name;
      Alcotest.(check int) "outer rounds" 2 outer.Trace.rounds;
      Alcotest.(check int) "outer bits" 10 outer.Trace.bits;
      match outer.Trace.children with
      | [ inner ] ->
          Alcotest.(check string) "inner name" "inner" inner.Trace.name;
          Alcotest.(check int) "inner rounds" 3 inner.Trace.rounds;
          Alcotest.(check int) "inner supersteps" 7 inner.Trace.supersteps
      | l -> Alcotest.fail (Printf.sprintf "%d inner spans" (List.length l)))
  | l -> Alcotest.fail (Printf.sprintf "%d outer spans" (List.length l))

let test_trace_exception_safe () =
  let tr = Trace.create ~clock:(fun () -> 0.0) () in
  (try Trace.span (Some tr) "boom" (fun () -> failwith "x") with Failure _ -> ());
  Trace.add (Some tr) ~rounds:1 ();
  Alcotest.(check int) "span closed on raise" 1 (Trace.root tr).Trace.rounds;
  Alcotest.(check int) "span recorded" 1
    (List.length (Trace.root tr).Trace.children)

let test_trace_none_is_passthrough () =
  Alcotest.(check int) "span None" 9 (Trace.span None "x" (fun () -> 9));
  Trace.add None ~rounds:1 ()

let test_trace_to_json_roundtrips () =
  let tr = Trace.create ~clock:(fun () -> 0.0) () in
  Trace.span (Some tr) "a" (fun () ->
      Trace.add (Some tr) ~rounds:1 ~messages:4 ();
      Trace.span (Some tr) "b" (fun () -> ()));
  let j = Trace.to_json tr in
  Alcotest.check json_testable "trace json round-trips" j (roundtrip j);
  match Json.member "children" j with
  | Some (Json.Arr [ _ ]) -> ()
  | _ -> Alcotest.fail "root children missing from JSON"

(* The accountant mirrors each phase's inclusive round/bit deltas into the
   attached tracer — the bridge the engine-level spans hang off. *)
let test_trace_accountant_bridge () =
  let tr = Trace.create ~clock:(fun () -> 0.0) () in
  let acc = Rounds.create ~bandwidth:10 in
  Rounds.set_tracer acc (Some tr);
  Rounds.with_phase acc "sparsify" (fun () ->
      Rounds.charge_broadcast acc ~label:"x" ~bits:25;
      Rounds.with_phase acc "spanner" (fun () ->
          Rounds.charge acc ~bits:3 ~label:"y" ~rounds:1));
  match (Trace.root tr).Trace.children with
  | [ sp ] ->
      Alcotest.(check string) "phase span" "sparsify" sp.Trace.name;
      Alcotest.(check int) "inclusive rounds" 4 sp.Trace.rounds;
      Alcotest.(check int) "inclusive bits" 28 sp.Trace.bits;
      Alcotest.(check (list string)) "nested phase" [ "spanner" ]
        (List.map (fun s -> s.Trace.name) sp.Trace.children)
  | l -> Alcotest.fail (Printf.sprintf "%d spans" (List.length l))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_counters_gauges () =
  let m = Metrics.create () in
  let mm = Some m in
  Metrics.inc mm "runs";
  Metrics.inc mm ~by:4 "runs";
  Metrics.inc mm ~by:0 "runs";
  Metrics.set_gauge mm "eps" 0.25;
  Metrics.set_gauge mm "eps" 0.125;
  Alcotest.(check int) "counter accumulates" 5 (Metrics.counter m "runs");
  Alcotest.(check int) "unknown counter is 0" 0 (Metrics.counter m "nope");
  Alcotest.(check (option (float 1e-12))) "gauge keeps last" (Some 0.125)
    (Metrics.gauge m "eps");
  Metrics.inc None "ignored";
  Metrics.set_gauge None "ignored" 1.0

let test_metrics_histogram_buckets () =
  let m = Metrics.create () in
  List.iter (Metrics.observe (Some m) "rounds") [ 1.0; 3.0; 1000.0; 0.0 ];
  match Metrics.histogram m "rounds" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 4 h.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum" 1004.0 h.Metrics.sum;
      Alcotest.(check (float 1e-9)) "max" 1000.0 h.Metrics.max;
      (* 1 -> 2^0, 3 -> 2^2, 1000 -> 2^10, 0 -> underflow bucket 0. *)
      Alcotest.(check (list (pair (float 1e-9) int))) "log2 buckets"
        [ (0.0, 1); (1.0, 1); (4.0, 1); (1024.0, 1) ]
        h.Metrics.buckets

let test_metrics_to_json () =
  let m = Metrics.create () in
  Metrics.inc (Some m) "b.count";
  Metrics.inc (Some m) "a.count";
  Metrics.set_gauge (Some m) "g" 2.0;
  Metrics.observe (Some m) "h" 5.0;
  let j = Metrics.to_json m in
  Alcotest.check json_testable "metrics json round-trips" j (roundtrip j);
  match Json.member "counters" j with
  | Some (Json.Obj [ ("a.count", Json.Int 1); ("b.count", Json.Int 1) ]) -> ()
  | _ -> Alcotest.fail "counters object malformed"

(* ------------------------------------------------------------------ *)
(* Report                                                              *)

let sample_report () =
  {
    Report.experiment = "E1";
    title = "spanner stretch & size vs Lemma 3.1 bounds";
    claims =
      [
        Report.claim ~name:"max stretch / (2k-1)" ~measured:1.0 ~bound:1.0 ();
        Report.claim ~direction:Report.Ge ~name:"exact fraction" ~measured:1.0
          ~bound:1.0 ();
      ];
    phases =
      [
        { Report.label = "sparsify/spanner/marking"; rounds = 12; bits = 480 };
        { Report.label = "solve/preprocess"; rounds = 3; bits = 30 };
      ];
    extra = [ ("note", Json.String "test") ];
  }

let test_report_within () =
  let le m b = Report.within (Report.claim ~name:"c" ~measured:m ~bound:b ()) in
  Alcotest.(check bool) "below" true (le 0.5 1.0);
  Alcotest.(check bool) "equal (slack)" true (le 1.0 1.0);
  Alcotest.(check bool) "above" false (le 1.1 1.0);
  let ge =
    Report.within
      (Report.claim ~direction:Report.Ge ~name:"c" ~measured:0.9 ~bound:1.0 ())
  in
  Alcotest.(check bool) "ge violated" false ge;
  Alcotest.(check bool) "all_within" true (Report.all_within (sample_report ()))

let test_report_validate () =
  let r = sample_report () in
  (match Report.validate (Report.to_json r) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Tampering with the aggregate must be caught. *)
  let tampered =
    match Report.to_json r with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "within_bound", _ -> ("within_bound", Json.Bool false)
               | kv -> kv)
             fields)
    | _ -> assert false
  in
  (match Report.validate tampered with
  | Ok () -> Alcotest.fail "inconsistent within_bound accepted"
  | Error _ -> ());
  match Report.validate (Json.Obj [ ("schema", Json.String "lbcc-bench/1") ]) with
  | Ok () -> Alcotest.fail "missing keys accepted"
  | Error _ -> ()

let test_report_write_real_file () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lbcc_obs_test_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let r = sample_report () in
      Alcotest.(check string) "filename" "BENCH_E1.json" (Report.filename r);
      let path = Report.write ~dir r in
      Alcotest.(check string) "path" (Filename.concat dir "BENCH_E1.json") path;
      let contents =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let j = Json.of_string contents in
      (match Report.validate j with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      (* Schema shape of the file on disk: the keys tooling greps for. *)
      (match Json.member "schema" j with
      | Some (Json.String "lbcc-bench/1") -> ()
      | _ -> Alcotest.fail "schema tag missing");
      (match Json.member "claims" j with
      | Some (Json.Arr (first :: _)) ->
          List.iter
            (fun k ->
              if Json.member k first = None then
                Alcotest.fail (Printf.sprintf "claim key %s missing" k))
            [ "name"; "measured"; "claimed_bound"; "direction"; "within_bound" ]
      | _ -> Alcotest.fail "claims array missing");
      match Json.member "phases" j with
      | Some (Json.Arr (first :: _)) ->
          List.iter
            (fun k ->
              if Json.member k first = None then
                Alcotest.fail (Printf.sprintf "phase key %s missing" k))
            [ "label"; "rounds"; "bits" ]
      | _ -> Alcotest.fail "phases array missing")

let suites =
  [
    ( "obs.json",
      [
        Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "string escaping" `Quick test_json_string_escaping;
        Alcotest.test_case "rejects NaN/inf" `Quick test_json_rejects_nonfinite;
        Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "nested spans" `Quick test_trace_nested_spans;
        Alcotest.test_case "exception safe" `Quick test_trace_exception_safe;
        Alcotest.test_case "None passthrough" `Quick test_trace_none_is_passthrough;
        Alcotest.test_case "to_json" `Quick test_trace_to_json_roundtrips;
        Alcotest.test_case "accountant bridge" `Quick test_trace_accountant_bridge;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "counters and gauges" `Quick test_metrics_counters_gauges;
        Alcotest.test_case "histogram buckets" `Quick test_metrics_histogram_buckets;
        Alcotest.test_case "to_json" `Quick test_metrics_to_json;
      ] );
    ( "obs.report",
      [
        Alcotest.test_case "within directions" `Quick test_report_within;
        Alcotest.test_case "validate" `Quick test_report_validate;
        Alcotest.test_case "write real file" `Quick test_report_write_real_file;
      ] );
  ]
