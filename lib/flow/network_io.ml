let to_string net =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "c laplacian_bcc flow network\n";
  Buffer.add_string buf
    (Printf.sprintf "p mcmf %d %d %d %d\n" net.Network.n (Network.m net)
       net.Network.source net.Network.sink);
  Array.iter
    (fun (a : Network.arc) ->
      Buffer.add_string buf (Printf.sprintf "a %d %d %d %d\n" a.src a.dst a.capacity a.cost))
    net.Network.arcs;
  Buffer.contents buf

let parse_lines lines =
  let header = ref None in
  let arcs = ref [] in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let fail msg =
        failwith (Printf.sprintf "Network_io.of_string: line %d: %s" lineno msg)
      in
      let line = String.trim line in
      if line = "" then ()
      else
        match line.[0] with
        | 'c' -> ()
        | 'p' -> (
            match String.split_on_char ' ' line with
            | [ "p"; "mcmf"; ns; ms; ss; ts ] -> (
                match
                  ( int_of_string_opt ns,
                    int_of_string_opt ms,
                    int_of_string_opt ss,
                    int_of_string_opt ts )
                with
                | Some n, Some m, Some source, Some sink ->
                    header := Some (n, m, source, sink)
                | _ -> fail "bad problem line")
            | _ -> fail "bad problem line")
        | 'a' -> (
            if !header = None then fail "arc before problem line";
            match String.split_on_char ' ' line with
            | [ "a"; ss; ds; cs; qs ] -> (
                match
                  ( int_of_string_opt ss,
                    int_of_string_opt ds,
                    int_of_string_opt cs,
                    int_of_string_opt qs )
                with
                | Some src, Some dst, Some capacity, Some cost ->
                    arcs := { Network.src; dst; capacity; cost } :: !arcs
                | _ -> fail "bad arc line")
            | _ -> fail "bad arc line")
        | _ -> fail "unknown line kind")
    lines;
  match !header with
  | None -> failwith "Network_io.of_string: missing problem line"
  | Some (n, m, source, sink) ->
      let arcs = List.rev !arcs in
      if List.length arcs <> m then
        failwith
          (Printf.sprintf "Network_io.of_string: expected %d arcs, found %d" m
             (List.length arcs));
      Network.make ~n ~source ~sink arcs

let of_string s = parse_lines (String.split_on_char '\n' s)

let save path net =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string net))

let load path = of_string (In_channel.with_open_bin path In_channel.input_all)

let to_dot ?flow (net : Network.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph net {\n";
  Buffer.add_string buf
    (Printf.sprintf "  %d [shape=doublecircle];\n  %d [shape=doublecircle];\n"
       net.Network.source net.Network.sink);
  Array.iteri
    (fun i (a : Network.arc) ->
      match flow with
      | Some f ->
          let loaded = f.(i) > 0.5 in
          Buffer.add_string buf
            (Printf.sprintf "  %d -> %d [label=\"%.0f/%d @%d\"%s];\n" a.src a.dst
               f.(i) a.capacity a.cost
               (if loaded then ", style=bold" else ""))
      | None ->
          Buffer.add_string buf
            (Printf.sprintf "  %d -> %d [label=\"%d @%d\"];\n" a.src a.dst
               a.capacity a.cost))
    net.Network.arcs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
