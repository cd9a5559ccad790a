open Lbcc_util
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Io = Lbcc_graph.Io
module Network = Lbcc_flow.Network
module Network_io = Lbcc_flow.Network_io

(* Same vertex count and the same edge array, in order. *)
let same_graph g h = Graph.n g = Graph.n h && Graph.edges g = Graph.edges h

let test_graph_roundtrip () =
  for seed = 1 to 5 do
    let prng = Prng.create seed in
    let g = Gen.erdos_renyi_connected prng ~n:20 ~p:0.3 ~w_max:9 in
    let g' = Io.graph_of_string (Io.graph_to_string g) in
    Alcotest.(check bool) (Printf.sprintf "roundtrip seed %d" seed) true
      (same_graph g g')
  done

let test_graph_roundtrip_fractional_weights () =
  let g =
    Graph.create ~n:3
      [ { Graph.u = 0; v = 1; w = 0.125 }; { u = 1; v = 2; w = 3.141592653589793 } ]
  in
  let g' = Io.graph_of_string (Io.graph_to_string g) in
  Alcotest.(check bool) "exact floats" true (same_graph g g')

let test_graph_file_roundtrip () =
  let prng = Prng.create 6 in
  let g = Gen.grid prng ~rows:4 ~cols:5 ~w_max:3 in
  let path = Filename.temp_file "lbcc" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_graph path g;
      let g' = Io.load_graph path in
      Alcotest.(check bool) "file roundtrip" true (same_graph g g'))

let test_graph_parse_errors () =
  let check_fails name s =
    Alcotest.(check bool) name true
      (try
         ignore (Io.graph_of_string s);
         false
       with Failure _ -> true)
  in
  check_fails "missing header" "e 0 1 1.0\n";
  check_fails "bad edge" "p graph 2 1\ne 0 x 1.0\n";
  check_fails "edge count mismatch" "p graph 2 2\ne 0 1 1.0\n";
  check_fails "unknown line" "p graph 2 0\nz nonsense\n"

let test_graph_comments_and_blanks () =
  let g = Io.graph_of_string "c hi\n\np graph 2 1\nc mid\ne 0 1 2\n\n" in
  Alcotest.(check int) "n" 2 (Graph.n g);
  Alcotest.(check (float 1e-12)) "w" 2.0 (Graph.edge g 0).Graph.w

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_network_roundtrip () =
  for seed = 1 to 5 do
    let prng = Prng.create seed in
    let net = Network.random prng ~n:12 ~density:0.2 ~max_capacity:7 ~max_cost:9 in
    let net' = Network_io.of_string (Network_io.to_string net) in
    Alcotest.(check int) "n" net.Network.n net'.Network.n;
    Alcotest.(check int) "source" net.Network.source net'.Network.source;
    Alcotest.(check int) "sink" net.Network.sink net'.Network.sink;
    Alcotest.(check bool) "arcs equal" true (net.Network.arcs = net'.Network.arcs)
  done

let test_network_file_roundtrip () =
  let prng = Prng.create 7 in
  let net = Network.layered prng ~layers:2 ~width:3 ~max_capacity:4 ~max_cost:5 in
  let path = Filename.temp_file "lbcc" ".net" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Network_io.save path net;
      let net' = Network_io.load path in
      Alcotest.(check bool) "arcs equal" true (net.Network.arcs = net'.Network.arcs))

let test_network_parse_errors () =
  let check_fails name s =
    Alcotest.(check bool) name true
      (try
         ignore (Network_io.of_string s);
         false
       with Failure _ -> true)
  in
  check_fails "missing header" "a 0 1 1 1\n";
  check_fails "arc count mismatch" "p mcmf 2 2 0 1\na 0 1 1 1\n";
  check_fails "bad arc" "p mcmf 2 1 0 1\na 0 1 x 1\n"

let test_network_dot_with_flow () =
  let net =
    Network.make ~n:2 ~source:0 ~sink:1
      [ { Network.src = 0; dst = 1; capacity = 3; cost = 2 } ]
  in
  let dot = Network_io.to_dot ~flow:[| 2.0 |] net in
  Alcotest.(check bool) "bold loaded arc" true (contains ~needle:"style=bold" dot)

let suites =
  [
    ( "io.graph",
      [
        Alcotest.test_case "roundtrip" `Quick test_graph_roundtrip;
        Alcotest.test_case "fractional weights" `Quick test_graph_roundtrip_fractional_weights;
        Alcotest.test_case "file roundtrip" `Quick test_graph_file_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_graph_parse_errors;
        Alcotest.test_case "comments and blanks" `Quick test_graph_comments_and_blanks;
      ] );
    ( "io.network",
      [
        Alcotest.test_case "roundtrip" `Quick test_network_roundtrip;
        Alcotest.test_case "file roundtrip" `Quick test_network_file_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_network_parse_errors;
        Alcotest.test_case "dot with flow" `Quick test_network_dot_with_flow;
      ] );
  ]
