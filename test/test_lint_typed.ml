(* lbcc-lint typed tier (DESIGN.md §13).

   The fixture corpus under [lint_fixtures/typed/] is typed in memory
   against the stdlib alone (Lint_tast.type_source) — no cmt files
   needed — with per-fixture configs pointing the passes' entry/door
   prefixes at the fixtures' own module names.  Each new rule has one
   positive and one negative fixture.  On top of that: the waiver
   grammar applied to a typed rule, the discover dedupe regression, the
   baseline subtraction, the SARIF shape, and a smoke test running the
   full [run_typed] pipeline over the real tree's cmts (skipped when the
   checkout or its build artifacts are unreachable). *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let type_fixture name ~modname =
  let source = read_file ("lint_fixtures/typed/" ^ name) in
  match Lint_tast.type_source ~path:("lib/fixtures/" ^ name) ~modname source with
  | Ok u -> u
  | Error d -> Alcotest.failf "fixture %s: %s" name d.Lint_diag.message

let no_waivers _path = Lint_suppress.scan ""

let analyze ?config ?(suppress_for = no_waivers) units =
  let graph = Lint_callgraph.build units in
  Lint_typed.analyze ?config graph ~suppress_for

let rules_fired diags = List.map (fun d -> d.Lint_diag.rule) diags

let default = Lint_typed.default_config

(* --------------------------------------------------------------------- *)
(* Determinism taint                                                      *)

let taint_config ~entries ~doors =
  { default with Lint_typed.taint_entries = entries; doors }

let taint_tests =
  [
    Alcotest.test_case "typ-det-taint: seed behind a helper fires" `Quick
      (fun () ->
        let u = type_fixture "taint_pos.ml" ~modname:"Taint_pos" in
        let config = taint_config ~entries:[ "Taint_pos" ] ~doors:[] in
        let diags = analyze ~config [ u ] in
        Alcotest.(check (list string))
          "one taint diagnostic" [ "typ-det-taint" ] (rules_fired diags);
        let d = List.hd diags in
        Alcotest.(check bool)
          "message names the seed" true
          (let m = d.Lint_diag.message in
           (* the witness chain and the resolved seed name are both there *)
           let has needle =
             let nl = String.length needle and ml = String.length m in
             let rec go i =
               i + nl <= ml && (String.sub m i nl = needle || go (i + 1))
             in
             go 0
           in
           has "Random" && has "Taint_pos.helper"));
    Alcotest.test_case "typ-det-taint: sanctioned door is clean" `Quick
      (fun () ->
        let u = type_fixture "taint_neg.ml" ~modname:"Taint_neg" in
        let config =
          taint_config ~entries:[ "Taint_neg" ] ~doors:[ "Taint_neg.Door" ]
        in
        Alcotest.(check (list string))
          "no diagnostics" [] (rules_fired (analyze ~config [ u ])));
    Alcotest.test_case "typ-det-taint: waiver at the seed sanctions it" `Quick
      (fun () ->
        let u = type_fixture "taint_pos.ml" ~modname:"Taint_pos" in
        let config = taint_config ~entries:[ "Taint_pos" ] ~doors:[] in
        let suppress_for _ =
          (* File-wide waiver, as a header comment would carry it. *)
          Lint_suppress.scan "(* lbcc-lint: allow-file typ-det-taint *)"
        in
        Alcotest.(check (list string))
          "waived" [] (rules_fired (analyze ~config ~suppress_for [ u ])));
  ]

(* --------------------------------------------------------------------- *)
(* Parallel-region races                                                  *)

let race_tests =
  [
    Alcotest.test_case "typ-par-race: shared captures fire" `Quick (fun () ->
        let u = type_fixture "race_pos.ml" ~modname:"Race_pos" in
        Alcotest.(check (list string))
          "captured ref + chunk-independent cell"
          [ "typ-par-race"; "typ-par-race" ]
          (rules_fired (analyze [ u ])));
    Alcotest.test_case "typ-par-race: chunk-local writes are clean" `Quick
      (fun () ->
        let u = type_fixture "race_neg.ml" ~modname:"Race_neg" in
        Alcotest.(check (list string))
          "no diagnostics" [] (rules_fired (analyze [ u ])));
  ]

(* --------------------------------------------------------------------- *)
(* Phase-accounting flow                                                  *)

let phase_config entries = { default with Lint_typed.phase_entries = entries }

let phase_tests =
  [
    Alcotest.test_case "typ-phase-flow: unphased primitive behind a call"
      `Quick (fun () ->
        let u = type_fixture "phase_pos.ml" ~modname:"Phase_pos" in
        let config = phase_config [ "Phase_pos.Api" ] in
        Alcotest.(check (list string))
          "flow violation + taxonomy violation"
          [ "typ-phase-flow"; "typ-phase-flow" ]
          (rules_fired (analyze ~config [ u ])));
    Alcotest.test_case "typ-phase-flow: phased path with valid label is clean"
      `Quick (fun () ->
        let u = type_fixture "phase_neg.ml" ~modname:"Phase_neg" in
        let config = phase_config [ "Phase_neg.Api" ] in
        Alcotest.(check (list string))
          "no diagnostics" [] (rules_fired (analyze ~config [ u ])));
  ]

(* --------------------------------------------------------------------- *)
(* Dead exports                                                           *)

let dead_config modname =
  {
    default with
    Lint_typed.export_scope = [ modname ^ ".Lib" ];
    roots = [ modname ^ ".Exe" ];
  }

let dead_ids diags =
  List.map
    (fun d ->
      (* The message names the value right after "public value ". *)
      match String.split_on_char ' ' d.Lint_diag.message with
      | "public" :: "value" :: id :: _ -> id
      | _ -> d.Lint_diag.message)
    diags

let dead_tests =
  [
    Alcotest.test_case "typ-dead-export: test-only and unreferenced fire"
      `Quick (fun () ->
        let u = type_fixture "dead_pos.ml" ~modname:"Dead_pos" in
        let diags = analyze ~config:(dead_config "Dead_pos") [ u ] in
        Alcotest.(check (list string))
          "two dead exports"
          [ "typ-dead-export"; "typ-dead-export" ]
          (rules_fired diags);
        Alcotest.(check (list string))
          "the test-only and the orphan value"
          [ "Dead_pos.Lib.Store.checked"; "Dead_pos.Lib.Store.orphan" ]
          (dead_ids diags));
    Alcotest.test_case
      "typ-dead-export: hops, aliases and initialisers keep values live"
      `Quick (fun () ->
        let u = type_fixture "dead_neg.ml" ~modname:"Dead_neg" in
        Alcotest.(check (list string))
          "no diagnostics" []
          (rules_fired (analyze ~config:(dead_config "Dead_neg") [ u ])));
  ]

(* --------------------------------------------------------------------- *)
(* Driver satellites: discover dedupe, baseline, SARIF                    *)

let discover_tests =
  [
    Alcotest.test_case "discover: overlapping path spellings dedupe" `Quick
      (fun () ->
        let canonical = Lint_driver.discover ~root:"lint_fixtures" [ "lib" ] in
        let overlapping =
          Lint_driver.discover ~root:"lint_fixtures"
            [ "lib"; "lib/"; "./lib"; "lib//proto"; "lib/./proto" ]
        in
        Alcotest.(check (list string))
          "same set as a single argument" canonical overlapping;
        let sorted_unique l = List.sort_uniq String.compare l = l in
        Alcotest.(check bool) "no duplicates" true (sorted_unique overlapping));
  ]

let diag ~rule ~file ~line ~message =
  {
    Lint_diag.rule;
    severity = Lint_diag.Error;
    file;
    line;
    col = 0;
    message;
  }

let baseline_tests =
  [
    Alcotest.test_case "baseline: known findings subtract as a multiset"
      `Quick (fun () ->
        let d1 = diag ~rule:"r" ~file:"a.ml" ~line:3 ~message:"m" in
        let d2 = diag ~rule:"r" ~file:"a.ml" ~line:90 ~message:"m" in
        let d3 = diag ~rule:"r" ~file:"b.ml" ~line:1 ~message:"other" in
        (* The baseline knows ONE instance of (r, a.ml, m) — recorded at a
           different line, which must not matter — and nothing about d3. *)
        let baseline = [ Lint_baseline.key d1 ] in
        let survivors = Lint_baseline.filter ~baseline [ d1; d2; d3 ] in
        Alcotest.(check int) "one absolved" 2 (List.length survivors);
        Alcotest.(check bool)
          "the second same-key instance still fails" true
          (List.memq d2 survivors || List.memq d1 survivors);
        Alcotest.(check bool) "unknown finding fails" true
          (List.memq d3 survivors));
    Alcotest.test_case "baseline: round-trips through the JSON report" `Quick
      (fun () ->
        let d = diag ~rule:"r" ~file:"a.ml" ~line:3 ~message:"m" in
        let r =
          { Lint_driver.root = "."; files = [ "a.ml" ]; diags = [ d ] }
        in
        let json =
          Lbcc_obs.Json.of_string
            (Lbcc_obs.Json.to_string (Lint_driver.to_json r))
        in
        match Lint_baseline.keys_of_json json with
        | Error e -> Alcotest.fail e
        | Ok keys ->
            Alcotest.(check (list string))
              "keys" [ Lint_baseline.key d ] keys;
            Alcotest.(check (list string))
              "filter drops it" []
              (List.map Lint_baseline.key
                 (Lint_baseline.filter ~baseline:keys [ d ])));
  ]

let sarif_tests =
  [
    Alcotest.test_case "SARIF 2.1.0 shape" `Quick (fun () ->
        let d =
          diag ~rule:"typ-det-taint" ~file:"lib/x.ml" ~line:7 ~message:"m"
        in
        let j = Lbcc_obs.Json.of_string (Lint_sarif.to_string [ d ]) in
        let get path json =
          List.fold_left
            (fun acc k ->
              match acc with
              | Some j -> (
                  match Lbcc_obs.Json.member k j with
                  | Some v -> Some v
                  | None -> None)
              | None -> None)
            (Some json) path
        in
        let str path =
          match get path j with Some (Lbcc_obs.Json.String s) -> s | _ -> "?"
        in
        Alcotest.(check string) "version" "2.1.0" (str [ "version" ]);
        Alcotest.(check bool)
          "$schema present" true
          (get [ "$schema" ] j <> None);
        match get [ "runs" ] j with
        | Some (Lbcc_obs.Json.Arr [ run ]) -> (
            Alcotest.(check string)
              "driver name" "lbcc-lint"
              (match get [ "tool"; "driver"; "name" ] run with
              | Some (Lbcc_obs.Json.String s) -> s
              | _ -> "?");
            Alcotest.(check bool)
              "driver lists rules" true
              (match get [ "tool"; "driver"; "rules" ] run with
              | Some (Lbcc_obs.Json.Arr (_ :: _)) -> true
              | _ -> false);
            match get [ "results" ] run with
            | Some (Lbcc_obs.Json.Arr [ result ]) ->
                Alcotest.(check string)
                  "ruleId" "typ-det-taint"
                  (match get [ "ruleId" ] result with
                  | Some (Lbcc_obs.Json.String s) -> s
                  | _ -> "?");
                let loc =
                  match get [ "locations" ] result with
                  | Some (Lbcc_obs.Json.Arr [ l ]) -> l
                  | _ -> Alcotest.fail "one location expected"
                in
                Alcotest.(check string)
                  "uri" "lib/x.ml"
                  (match
                     get
                       [ "physicalLocation"; "artifactLocation"; "uri" ]
                       loc
                   with
                  | Some (Lbcc_obs.Json.String s) -> s
                  | _ -> "?");
                Alcotest.(check bool)
                  "1-based line" true
                  (match
                     get [ "physicalLocation"; "region"; "startLine" ] loc
                   with
                  | Some (Lbcc_obs.Json.Int 7) -> true
                  | _ -> false)
            | _ -> Alcotest.fail "one result expected")
        | _ -> Alcotest.fail "one run expected");
  ]

(* --------------------------------------------------------------------- *)
(* Real-tree smoke                                                        *)

let find_repo_root () =
  let rec up dir n =
    if n = 0 then None
    else if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir ".git")
      && Sys.file_exists (Filename.concat dir "lib")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent (n - 1)
  in
  up (Sys.getcwd ()) 8

let smoke_tests =
  [
    Alcotest.test_case "real tree lints clean under --typed" `Quick (fun () ->
        match find_repo_root () with
        | None -> () (* not running from a checkout; make lint-typed covers CI *)
        | Some root ->
            if not (Sys.file_exists (Filename.concat root "_build/default/lib"))
            then () (* no cmts staged; make lint-typed covers CI *)
            else
              let r = Lint_driver.run_typed ~root [ "lib" ] in
              List.iter
                (fun d -> Printf.printf "%s\n" (Lint_diag.to_string d))
                r.Lint_driver.diags;
              Alcotest.(check int) "errors" 0 (Lint_driver.errors r);
              Alcotest.(check (list string))
                "no dead exports" []
                (List.filter_map
                   (fun d ->
                     if d.Lint_diag.rule = "typ-dead-export" then
                       Some (Lint_diag.to_string d)
                     else None)
                   r.Lint_driver.diags));
    Alcotest.test_case "missing cmts raise Typed_unavailable" `Quick (fun () ->
        (* The fixture tree has no _build: the typed path must refuse with
           the actionable message rather than analyze nothing. *)
        match Lint_driver.run_typed ~root:"lint_fixtures" [ "lib" ] with
        | _ -> Alcotest.fail "expected Typed_unavailable"
        | exception Lint_driver.Typed_unavailable msg ->
            Alcotest.(check bool)
              "mentions dune build" true
              (let needle = "dune build" in
               let nl = String.length needle and ml = String.length msg in
               let rec go i =
                 i + nl <= ml && (String.sub msg i nl = needle || go (i + 1))
               in
               go 0));
  ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let exe_cmt_tests =
  [
    Alcotest.test_case "missing executable cmts raise Typed_unavailable" `Quick
      (fun () ->
        (* A tree whose lib/ has its cmt but whose bin/ source has none:
           the dead-export roots are incomplete, so the typed pass must
           refuse rather than report every export dead. *)
        let lib_cmt root =
          Filename.concat root
            "_build/default/lib/util/.lbcc_util.objs/byte/lbcc_util__Heap.cmt"
        in
        match find_repo_root () with
        | Some root when Sys.file_exists (lib_cmt root) ->
            let tmp =
              Filename.concat (Filename.get_temp_dir_name ())
                (Printf.sprintf "lbcc-lint-exe-%d" (Unix.getpid ()))
            in
            Fun.protect
              ~finally:(fun () -> if Sys.file_exists tmp then remove_tree tmp)
              (fun () ->
                write_file (lib_cmt tmp)
                  (In_channel.with_open_bin (lib_cmt root) In_channel.input_all);
                write_file (Filename.concat tmp "lib/util/heap.ml")
                  (read_file (Filename.concat root "lib/util/heap.ml"));
                write_file (Filename.concat tmp "bin/tool.ml") "let () = ()\n";
                match Lint_driver.run_typed ~root:tmp [ "lib" ] with
                | _ -> Alcotest.fail "expected Typed_unavailable"
                | exception Lint_driver.Typed_unavailable msg ->
                    Alcotest.(check bool)
                      "names the executable source" true
                      (let needle = "bin/tool.ml" in
                       let nl = String.length needle and ml = String.length msg in
                       let rec go i =
                         i + nl <= ml && (String.sub msg i nl = needle || go (i + 1))
                       in
                       go 0))
        | _ -> () (* no checkout or build; make lint-typed covers CI *));
  ]

let suites =
  [
    ( "lint-typed",
      taint_tests @ race_tests @ phase_tests @ dead_tests @ discover_tests
      @ baseline_tests
      @ sarif_tests @ smoke_tests @ exe_cmt_tests );
  ]
