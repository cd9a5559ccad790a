let graph_to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "c laplacian_bcc graph\n";
  Buffer.add_string buf (Printf.sprintf "p graph %d %d\n" (Graph.n g) (Graph.m g));
  Array.iter
    (fun (e : Graph.edge) ->
      Buffer.add_string buf (Printf.sprintf "e %d %d %.17g\n" e.u e.v e.w))
    (Graph.edges g);
  Buffer.contents buf

let save_graph path g =
  Out_channel.with_open_bin path (fun oc -> output_string oc (graph_to_string g))
