open Lbcc_util
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Io = Lbcc_graph.Io
module Network = Lbcc_flow.Network
module Network_io = Lbcc_flow.Network_io

let test_graph_fractional_weights () =
  let g =
    Graph.create ~n:3
      [ { Graph.u = 0; v = 1; w = 0.125 }; { u = 1; v = 2; w = 3.141592653589793 } ]
  in
  Alcotest.(check string) "exact floats"
    "c laplacian_bcc graph\np graph 3 2\ne 0 1 0.125\ne 1 2 3.1415926535897931\n"
    (Io.graph_to_string g)

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
        Alcotest.test_case "fractional weights" `Quick test_graph_fractional_weights;
      ] );
    ( "io.network",
      [
        Alcotest.test_case "roundtrip" `Quick test_network_roundtrip;
        Alcotest.test_case "file roundtrip" `Quick test_network_file_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_network_parse_errors;
        Alcotest.test_case "dot with flow" `Quick test_network_dot_with_flow;
      ] );
  ]
