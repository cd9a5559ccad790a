let graph_to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "c laplacian_bcc graph\n";
  Buffer.add_string buf (Printf.sprintf "p graph %d %d\n" (Graph.n g) (Graph.m g));
  Array.iter
    (fun (e : Graph.edge) ->
      Buffer.add_string buf (Printf.sprintf "e %d %d %.17g\n" e.u e.v e.w))
    (Graph.edges g);
  Buffer.contents buf

let parse_lines lines =
  let n = ref (-1) and expected_m = ref (-1) in
  let edges = ref [] in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let fail msg = failwith (Printf.sprintf "Io.graph_of_string: line %d: %s" lineno msg) in
      let line = String.trim line in
      if line = "" then ()
      else
        match line.[0] with
        | 'c' -> ()
        | 'p' -> (
            match String.split_on_char ' ' line with
            | [ "p"; "graph"; ns; ms ] -> (
                match (int_of_string_opt ns, int_of_string_opt ms) with
                | Some nv, Some mv ->
                    n := nv;
                    expected_m := mv
                | _ -> fail "bad problem line")
            | _ -> fail "bad problem line")
        | 'e' -> (
            if !n < 0 then fail "edge before problem line";
            match String.split_on_char ' ' line with
            | [ "e"; us; vs; ws ] -> (
                match
                  (int_of_string_opt us, int_of_string_opt vs, float_of_string_opt ws)
                with
                | Some u, Some v, Some w -> edges := { Graph.u; v; w } :: !edges
                | _ -> fail "bad edge line")
            | _ -> fail "bad edge line")
        | _ -> fail "unknown line kind")
    lines;
  if !n < 0 then failwith "Io.graph_of_string: missing problem line";
  let edges = List.rev !edges in
  if !expected_m >= 0 && List.length edges <> !expected_m then
    failwith
      (Printf.sprintf "Io.graph_of_string: expected %d edges, found %d" !expected_m
         (List.length edges));
  Graph.create ~n:!n edges

(* Test-only: no command reads graph files, so the reader goes.  Checked by
   the io.graph round-trip, parse-error and comment cases (test_io.ml)
   and "core.api graph file format roundtrips" (test_core.ml); slated for
   deletion with them. *)
(* lbcc-lint: allow typ-dead-export *)
let graph_of_string s = parse_lines (String.split_on_char '\n' s)

let save_graph path g =
  Out_channel.with_open_bin path (fun oc -> output_string oc (graph_to_string g))

(* Test-only, checked by "io.graph file roundtrip" (test_io.ml); slated
   for deletion with it. *)
(* lbcc-lint: allow typ-dead-export *)
let load_graph path = graph_of_string (In_channel.with_open_bin path In_channel.input_all)
