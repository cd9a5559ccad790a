type span = {
  name : string;
  mutable wall_ns : int;
  mutable rounds : int;
  mutable bits : int;
  supersteps : int;
  mutable attrs : (string * Json.t) list;
  mutable children : span list; (* reversed; [to_json]/[pp] re-reverse *)
}

type t = {
  clock : unit -> float;
  root_span : span;
  mutable stack : span list; (* innermost first, root always last *)
}

let fresh_span name =
  {
    name;
    wall_ns = 0;
    rounds = 0;
    bits = 0;
    supersteps = 0;
    attrs = [];
    children = [];
  }

let create ?(clock = Clock.now_s) () =
  let root_span = fresh_span "trace" in
  { clock; root_span; stack = [ root_span ] }

let current t = match t.stack with s :: _ -> s | [] -> t.root_span

let span tracer name f =
  match tracer with
  | None -> f ()
  | Some t ->
      let s = fresh_span name in
      let parent = current t in
      parent.children <- s :: parent.children;
      t.stack <- s :: t.stack;
      let t0 = t.clock () in
      Fun.protect
        ~finally:(fun () ->
          s.wall_ns <- s.wall_ns + int_of_float ((t.clock () -. t0) *. 1e9);
          (* Pop through any spans the body leaked (it cannot: [span] is the
             only push site and it always pops), defensive against reentrant
             clock exceptions. *)
          t.stack <- (match t.stack with _ :: rest -> rest | [] -> []))
        f

let add tracer ?(rounds = 0) ?(bits = 0) () =
  match tracer with
  | None -> ()
  | Some t ->
      let s = current t in
      s.rounds <- s.rounds + rounds;
      s.bits <- s.bits + bits

let root t = t.root_span

let rec span_to_json s =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("wall_ns", Json.Int s.wall_ns);
      ("rounds", Json.Int s.rounds);
      ("bits", Json.Int s.bits);
      ("supersteps", Json.Int s.supersteps);
      ("attrs", Json.Obj s.attrs);
      ("children", Json.Arr (List.rev_map span_to_json s.children |> List.rev));
    ]

let to_json t = span_to_json t.root_span

let pp ppf t =
  let rec walk indent s =
    Format.fprintf ppf "%s%s: rounds=%d bits=%d wall=%.3fms@,"
      indent s.name s.rounds s.bits
      (float_of_int s.wall_ns /. 1e6);
    List.iter (walk (indent ^ "  ")) (List.rev s.children)
  in
  Format.fprintf ppf "@[<v>";
  walk "" t.root_span;
  Format.fprintf ppf "@]"
