module Graph = Lbcc_graph.Graph

(* Counting-sort delivery plan, keyed (src, dst): the receiver-major CSR of
   the graph's directed delivery pairs.  [srcs.(off.(v)) .. srcs.(off.(v+1)-1)]
   are the senders vertex [v] hears, ascending (parallel edges adjacent) —
   built in two counting passes over the edge array, with no intermediate
   per-vertex lists and no comparison sort. *)
type t = { off : int array; srcs : int array }

let plan graph =
  let n = Graph.n graph in
  let edges = Graph.edges graph in
  let m2 = 2 * Array.length edges in
  (* Pass 1: group the directed pairs by source. *)
  let out_off = Array.make (n + 1) 0 in
  Array.iter
    (fun (e : Graph.edge) ->
      out_off.(e.Graph.u + 1) <- out_off.(e.Graph.u + 1) + 1;
      out_off.(e.Graph.v + 1) <- out_off.(e.Graph.v + 1) + 1)
    edges;
  for i = 0 to n - 1 do
    out_off.(i + 1) <- out_off.(i + 1) + out_off.(i)
  done;
  let out_dst = Array.make m2 0 in
  let cursor = Array.copy out_off in
  Array.iter
    (fun (e : Graph.edge) ->
      out_dst.(cursor.(e.Graph.u)) <- e.Graph.v;
      cursor.(e.Graph.u) <- cursor.(e.Graph.u) + 1;
      out_dst.(cursor.(e.Graph.v)) <- e.Graph.u;
      cursor.(e.Graph.v) <- cursor.(e.Graph.v) + 1)
    edges;
  (* Pass 2: scatter sources into receiver segments.  The graph is
     undirected, so in-degrees equal out-degrees and the offsets carry
     over; walking sources in ascending order makes every segment
     ascending (the counting sort is stable). *)
  let off = Array.copy out_off in
  let srcs = Array.make m2 0 in
  let cur = Array.copy off in
  for u = 0 to n - 1 do
    for i = out_off.(u) to out_off.(u + 1) - 1 do
      let d = out_dst.(i) in
      srcs.(cur.(d)) <- u;
      cur.(d) <- cur.(d) + 1
    done
  done;
  { off; srcs }
