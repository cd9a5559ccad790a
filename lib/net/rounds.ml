open Lbcc_util
module Trace = Lbcc_obs.Trace

type entry = { mutable r : int; mutable b : int }

type t = {
  bandwidth : int;
  mutable total : int;
  mutable total_bits : int;
  tally : (string, entry) Hashtbl.t;
  mutable order : string list; (* reversed first-charge order *)
  mutable prefix : string list; (* open phases, innermost first *)
  mutable tracer : Trace.t option;
}

let create ~bandwidth =
  if bandwidth < 1 then invalid_arg "Rounds.create: bandwidth must be >= 1";
  {
    bandwidth;
    total = 0;
    total_bits = 0;
    tally = Hashtbl.create 16;
    order = [];
    prefix = [];
    tracer = None;
  }

let bandwidth t = t.bandwidth

let set_tracer t tracer = t.tracer <- tracer

let full_label t label =
  match t.prefix with
  | [] -> label
  | prefix -> String.concat "/" (List.rev prefix) ^ "/" ^ label

let charge ?(bits = 0) t ~label ~rounds =
  if rounds < 0 then invalid_arg "Rounds.charge: negative rounds";
  if bits < 0 then invalid_arg "Rounds.charge: negative bits";
  let label = full_label t label in
  t.total <- t.total + rounds;
  t.total_bits <- t.total_bits + bits;
  match Hashtbl.find_opt t.tally label with
  | Some e ->
      e.r <- e.r + rounds;
      e.b <- e.b + bits
  | None ->
      Hashtbl.add t.tally label { r = rounds; b = bits };
      t.order <- label :: t.order

let charge_broadcast t ~label ~bits =
  let bits = Stdlib.max 1 bits in
  let rounds = Stdlib.max 1 (Bits.ceil_div bits t.bandwidth) in
  charge t ~label ~bits ~rounds

let charge_vector ?(entries = 1) t ~label ~entry_bits =
  if entries < 1 then invalid_arg "Rounds.charge_vector: entries must be >= 1";
  charge_broadcast t ~label ~bits:(entries * entry_bits)

let rounds t = t.total

let bits t = t.total_bits

let entry_of t label = Hashtbl.find t.tally label

let breakdown t = List.rev_map (fun label -> (label, (entry_of t label).r)) t.order

let bits_breakdown t =
  List.rev_map (fun label -> (label, (entry_of t label).b)) t.order

let with_phase t name f =
  Trace.span t.tracer name @@ fun () ->
  t.prefix <- name :: t.prefix;
  let r0 = t.total and b0 = t.total_bits in
  Fun.protect
    ~finally:(fun () ->
      (match t.prefix with
      | p :: rest when p == name -> t.prefix <- rest
      | _ -> (* a reset inside the phase cleared the stack *) ());
      Trace.add t.tracer ~rounds:(t.total - r0) ~bits:(t.total_bits - b0) ())
    f

let with_phase_opt acc name f =
  match acc with Some t -> with_phase t name f | None -> f ()

let phase_path t = String.concat "/" (List.rev t.prefix)

type tree = { label : string; t_rounds : int; t_bits : int; children : tree list }

(* Fold the flat path-labeled breakdown into a forest.  Each node aggregates
   its subtree; charges made directly at an interior path contribute to that
   node's own totals.  First-charge order is preserved among siblings. *)
let tree t =
  let rows =
    List.rev_map
      (fun label ->
        let e = entry_of t label in
        (String.split_on_char '/' label, e.r, e.b))
      t.order
  in
  let rec build rows =
    (* Group consecutive-by-first-appearance rows by head segment. *)
    let order = ref [] in
    let groups : (string, (string list * int * int) list ref) Hashtbl.t =
      Hashtbl.create 8
    in
    List.iter
      (fun (path, r, b) ->
        match path with
        | [] -> ()
        | head :: rest ->
            let bucket =
              match Hashtbl.find_opt groups head with
              | Some bucket -> bucket
              | None ->
                  let bucket = ref [] in
                  Hashtbl.add groups head bucket;
                  order := head :: !order;
                  bucket
            in
            bucket := (rest, r, b) :: !bucket)
      rows;
    List.rev_map
      (fun head ->
        let members = List.rev !(Hashtbl.find groups head) in
        let own_r = ref 0 and own_b = ref 0 in
        let deeper =
          List.filter
            (fun (rest, r, b) ->
              if rest = [] then begin
                own_r := !own_r + r;
                own_b := !own_b + b;
                false
              end
              else true)
            members
        in
        let children = build deeper in
        let sum f = List.fold_left (fun acc c -> acc + f c) 0 children in
        {
          label = head;
          t_rounds = !own_r + sum (fun c -> c.t_rounds);
          t_bits = !own_b + sum (fun c -> c.t_bits);
          children;
        })
      !order
  in
  build rows

(* Test-only, checked by "net.rounds reset/checkpoint" and "net.rounds
   reset clears hierarchy" (test_net.ml); slated for deletion with them. *)
(* lbcc-lint: allow typ-dead-export *)
let reset t =
  t.total <- 0;
  t.total_bits <- 0;
  Hashtbl.reset t.tally;
  t.order <- [];
  t.prefix <- []

let checkpoint t = t.total

let checkpoint_bits t = t.total_bits
