open Lbcc_util

let dijkstra_with_parents g ~src =
  let n = Graph.n g in
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Heap.create () in
  dist.(src) <- 0.0;
  Heap.push heap 0.0 src;
  let rec drain () =
    match Heap.pop_min heap with
    | None -> ()
    | Some (d, v) ->
        if not settled.(v) then begin
          settled.(v) <- true;
          List.iter
            (fun (u, eid) ->
              let w = (Graph.edge g eid).w in
              if (not settled.(u)) && d +. w < dist.(u) then begin
                dist.(u) <- d +. w;
                parent.(u) <- eid;
                Heap.push heap dist.(u) u
              end)
            (Graph.neighbors g v)
        end;
        drain ()
  in
  drain ();
  (dist, parent)

let dijkstra g ~src = fst (dijkstra_with_parents g ~src)

(* Test oracle: "dist.bfs matches reference" (test_dist.ml) and "net.engine
   bfs distances" (test_net.ml) check Bfs levels against it. *)
(* lbcc-lint: allow typ-dead-export *)
let bfs_hops g ~src =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (u, _) ->
        if dist.(u) = max_int then begin
          dist.(u) <- dist.(v) + 1;
          Queue.push u q
        end)
      (Graph.neighbors g v)
  done;
  dist

let stretch g h =
  if Graph.n g <> Graph.n h then invalid_arg "Paths.stretch: vertex count mismatch";
  let n = Graph.n g in
  let worst = ref 1.0 in
  for src = 0 to n - 1 do
    let dg = dijkstra g ~src and dh = dijkstra h ~src in
    for v = 0 to n - 1 do
      if v <> src && Float.is_finite dg.(v) && dg.(v) > 0.0 then begin
        if Float.is_finite dh.(v) then worst := Float.max !worst (dh.(v) /. dg.(v))
        else worst := infinity
      end
    done
  done;
  !worst

let eccentricity g ~src =
  let d = dijkstra g ~src in
  Array.fold_left (fun acc x -> if Float.is_finite x then Float.max acc x else acc) 0.0 d

(* Test-only, checked by the three "graph.paths bellman-ford" cases
   (test_graph.ml); slated for deletion with them. *)
(* lbcc-lint: allow typ-dead-export *)
let bellman_ford ~n ~arcs ~src =
  let dist = Array.make n infinity in
  dist.(src) <- 0.0;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < n do
    changed := false;
    incr rounds;
    List.iter
      (fun (u, v, w) ->
        if Float.is_finite dist.(u) && dist.(u) +. w < dist.(v) -. 1e-12 then begin
          dist.(v) <- dist.(u) +. w;
          changed := true
        end)
      arcs
  done;
  (* One more relaxation detects a reachable negative cycle. *)
  let negative =
    List.exists
      (fun (u, v, w) -> Float.is_finite dist.(u) && dist.(u) +. w < dist.(v) -. 1e-9)
      arcs
  in
  if negative then None else Some dist

let diameter g =
  let worst = ref 0.0 in
  for src = 0 to Graph.n g - 1 do
    worst := Float.max !worst (eccentricity g ~src)
  done;
  !worst
