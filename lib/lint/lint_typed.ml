(* The typed analysis passes: interprocedural determinism taint and the
   phase-accounting flow check, both over the Lint_callgraph, plus the
   shared configuration that names the sanctioned doors, the public
   entry surfaces and the broadcast primitives as resolved module paths.

   The untyped tier already polices the same invariants syntactically;
   what the typed tier adds is resolution and flow:

   - a [Random.int] behind [module R = Random], or behind a helper in
     another file, is the same taint as a literal one ([typ-det-taint]
     reports the seed with the call chain from a public entry point);
   - a [Rounds.charge] that executes three calls below a public API
     function is only sound if some frame on that path opened a
     [with_phase] scope ([typ-phase-flow] walks the unphased-edge
     closure of the entry set and reports broadcast primitives it can
     still reach);
   - a closure handed to the worker pool is checked against the
     disjoint-writes contract ([typ-par-race], implemented in
     Lint_race, driven from here).

   A determinism seed that carries a valid UNTYPED waiver (e.g. a
   [det-unordered-hashtbl] waiver arguing order-insensitivity) is
   treated as sanctioned: the waiver kills the taint at its source, so
   one reviewed justification does not have to be repeated at every
   caller. *)

type config = {
  doors : string list;
      (** dotted module prefixes whose internals are sanctioned
          containment: taint neither originates in nor propagates
          through them *)
  taint_entries : string list;
      (** dotted prefixes of the public protocol/solver surface: a seed
          only fires if some function here can reach it *)
  phase_entries : string list;
      (** dotted prefixes of the service front doors that must establish
          phase scopes before broadcasting *)
  primitives : string list;
      (** dotted 2-component suffixes of the broadcast primitives *)
  export_scope : string list;
      (** dotted library prefixes whose exported values must be reached
          from a root *)
  roots : string list;
      (** dotted prefixes of the entry points' top-level bindings; module
          initialisers are roots as well *)
}

let default_config =
  {
    doors = [ "Lbcc_util.Tbl"; "Lbcc_obs.Clock"; "Lbcc_util.Pool" ];
    taint_entries =
      [
        "Lbcc_net"; "Lbcc_dist"; "Lbcc_laplacian"; "Lbcc_sparsifier";
        "Lbcc_spanner"; "Lbcc_flow"; "Lbcc_lp"; "Lbcc_core"; "Lbcc_service";
        "Lbcc_serve"; "Lbcc_graph"; "Lbcc_linalg";
      ];
    phase_entries = [ "Lbcc_core"; "Lbcc_service"; "Lbcc_dist"; "Lbcc_serve" ];
    primitives =
      [
        "Engine.run"; "Reliable.run"; "Byzantine.run";
        "Rounds.charge"; "Rounds.charge_broadcast"; "Rounds.charge_vector";
      ];
    export_scope =
      [
        "Lbcc_util"; "Lbcc_obs"; "Lbcc_linalg"; "Lbcc_graph"; "Lbcc_net";
        "Lbcc_dist"; "Lbcc_spanner"; "Lbcc_sparsifier"; "Lbcc_laplacian";
        "Lbcc_service"; "Lbcc_lp"; "Lbcc_flow"; "Lbcc_core"; "Lbcc_serve";
      ];
    (* dune wraps every executable's modules in [Dune__exe]: the units
       under bin/, bench/, perfbench/ and examples/. *)
    roots = [ "Dune.exe" ];
  }

let is_door config id =
  List.exists (fun d -> Lint_tast.has_dot_prefix ~prefix:d id) config.doors

let mk_diag ~rule ~file ~(loc : Location.t) message =
  let severity =
    match Lint_rules.find_rule rule with
    | Some r -> r.Lint_rules.severity
    | None -> Lint_diag.Error
  in
  let pos = loc.Location.loc_start in
  {
    Lint_diag.rule;
    severity;
    file;
    line = pos.Lexing.pos_lnum;
    col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    message;
  }

let chain_string ids = String.concat " -> " ids

(* ------------------------------------------------------------------ *)
(* Determinism taint                                                   *)

type seed_kind = Sk_random | Sk_hash_order | Sk_wall_clock | Sk_domain

(* The untyped rule whose waiver sanctions this seed kind. *)
let lexical_rule_of_kind = function
  | Sk_random -> "det-unseeded-random"
  | Sk_hash_order -> "det-unordered-hashtbl"
  | Sk_wall_clock -> "det-wall-clock"
  | Sk_domain -> "det-raw-domain"

let kind_doc = function
  | Sk_random -> "ambient Stdlib Random"
  | Sk_hash_order -> "hash-order enumeration"
  | Sk_wall_clock -> "wall-clock read"
  | Sk_domain -> "raw domain spawn"

(* Classify a resolved reference as a determinism seed.  Scopes mirror
   the untyped rules: lib/util may seed its own Prng, lib/obs owns the
   clock, pool.ml owns domains. *)
let classify_seed ~unit_path name =
  let n = Lint_tast.drop_stdlib name in
  let under dir = Lint_tast.under dir unit_path in
  let two = Lint_tast.suffix ~k:2 n in
  if Lint_tast.has_dot_prefix ~prefix:"Random" n && not (under "lib/util") then
    Some (Sk_random, n)
  else
    match two with
    | "Hashtbl.iter" | "Hashtbl.fold"
      when Lint_tast.in_lib unit_path
           && (not (under "lib/util"))
           && (not (under "lib/obs"))
           && not (under "lib/lint") ->
        Some (Sk_hash_order, n)
    | "Sys.time" | "Unix.gettimeofday" | "Unix.time" | "Unix.gmtime"
    | "Unix.localtime"
      when not (under "lib/obs") ->
        Some (Sk_wall_clock, n)
    | "Domain.spawn" when unit_path <> "lib/util/pool.ml" ->
        Some (Sk_domain, n)
    | _ -> None

(* [suppress_for path] returns the waiver table scanned from the real
   source of [path] (never raises: a missing file yields an empty
   table). *)
let taint config (graph : Lint_callgraph.t) ~suppress_for =
  let open Lint_callgraph in
  (* Seeds per node, with sanctioned ones (waived at source) dropped. *)
  let node_seeds n =
    if is_door config n.id then []
    else
      List.filter_map
        (fun r ->
          match classify_seed ~unit_path:n.unit_path r.name with
          | None -> None
          | Some (kind, name) ->
              let line = r.rloc.Location.loc_start.Lexing.pos_lnum in
              let sup = suppress_for n.unit_path in
              if
                Lint_suppress.active sup ~rule:(lexical_rule_of_kind kind) ~line
                || Lint_suppress.active sup ~rule:"typ-det-taint" ~line
              then None
              else Some (kind, name, r.rloc))
        n.refs
  in
  let entry n =
    (not (is_door config n.id))
    && List.exists
         (fun p -> Lint_tast.has_dot_prefix ~prefix:p n.id)
         config.taint_entries
  in
  (* Reachability never crosses a door: calls INTO Tbl/Clock/Pool are the
     sanctioned way to consume their nondeterminism. *)
  let reach = reachable graph ~roots:entry in
  let reach n = Hashtbl.mem reach n.id && not (is_door config n.id) in
  List.concat_map
    (fun n ->
      match node_seeds n with
      | [] -> []
      | _ when not (reach n) -> []
      | seeds ->
          let chain =
            match witness graph ~roots:entry ~target:n.id with
            | Some ids -> chain_string ids
            | None -> n.id
          in
          List.map
            (fun (kind, name, loc) ->
              mk_diag ~rule:"typ-det-taint" ~file:n.unit_path ~loc
                (Printf.sprintf
                   "%s (%s) reaches the public surface through %s; route \
                    through the sanctioned doors (Lbcc_util.Tbl, \
                    Lbcc_obs.Clock, Lbcc_util.Pool / seeded Prng) or waive \
                    with a determinism argument"
                   (kind_doc kind) name chain))
            seeds)
    (sorted_nodes graph)

(* ------------------------------------------------------------------ *)
(* Phase-accounting flow                                               *)

let is_primitive config name =
  List.mem (Lint_tast.suffix ~k:2 name) config.primitives

(* Nodes that ARE broadcast primitives: their bodies are the
   implementation of charging, not consumers of it. *)
let is_primitive_node config (n : Lint_callgraph.node) = is_primitive config n.id

let phase_flow config (graph : Lint_callgraph.t) =
  let open Lint_callgraph in
  let entry n =
    List.exists
      (fun p -> Lint_tast.has_dot_prefix ~prefix:p n.id)
      config.phase_entries
    && not (is_primitive_node config n)
  in
  (* Unphased closure of the entry set: follow only call edges that do
     not pass through a with_phase scope, and never descend into a
     primitive (its internals are its own). *)
  let stop = is_primitive_node config in
  let unphased =
    reachable graph ~roots:entry ~stop ~use_edge:(fun phased -> not phased)
  in
  let skip_unit p = p = "lib/net/rounds.ml" in
  let diags =
    List.concat_map
      (fun n ->
        if
          (not (Hashtbl.mem unphased n.id))
          || is_primitive_node config n
          || skip_unit n.unit_path
        then []
        else
          let sites =
            List.filter
              (fun r -> is_primitive config r.name && not r.phased)
              n.refs
          in
          match sites with
          | [] -> []
          | sites ->
              let chain =
                match
                  witness graph ~roots:entry ~target:n.id ~stop
                    ~use_edge:(fun phased -> not phased)
                with
                | Some ids -> chain_string ids
                | None -> n.id
              in
              List.map
                (fun r ->
                  mk_diag ~rule:"typ-phase-flow" ~file:n.unit_path ~loc:r.rloc
                    (Printf.sprintf
                       "broadcast primitive %s is reachable from the public \
                        surface (%s) with no with_phase scope on the path; \
                        wrap the call in Rounds.with_phase with a taxonomy \
                        label, or waive with a justification"
                       (Lint_tast.suffix ~k:2 r.name)
                       chain))
                sites)
      (sorted_nodes graph)
  in
  (* Taxonomy validation on with_phase labels seen at typed call sites:
     catches labels routed through aliased or locally-wrapped openers
     that the lexical pass cannot attribute. *)
  let label_diags =
    List.concat_map
      (fun n ->
        List.filter_map
          (fun (label, loc) ->
            if List.mem label Lint_rules.phase_vocabulary then None
            else
              Some
                (mk_diag ~rule:"typ-phase-flow" ~file:n.unit_path ~loc
                   (Printf.sprintf
                      "with_phase label %S is outside the documented \
                       taxonomy (%s)"
                      label
                      (String.concat "|" Lint_rules.phase_vocabulary))))
          n.phase_labels)
      (List.filter
         (fun n -> Lint_tast.in_lib n.unit_path)
         (sorted_nodes graph))
  in
  diags @ label_diags

(* ------------------------------------------------------------------ *)
(* Race pass (driver around Lint_race)                                 *)

let races (graph : Lint_callgraph.t) =
  List.concat_map
    (fun (u : Lint_tast.unit_info) ->
      if u.path = "lib/util/pool.ml" || not (Lint_tast.in_lib u.path) then []
      else
        List.map
          (fun (f : Lint_race.finding) ->
            mk_diag ~rule:"typ-par-race" ~file:u.path ~loc:f.Lint_race.floc
              f.Lint_race.message)
          (Lint_race.check_unit u))
    graph.Lint_callgraph.units

(* ------------------------------------------------------------------ *)
(* Dead exports                                                        *)

(* An exported value in [export_scope] is dead when nothing reachable
   from the roots (the entry points' top-level bindings and every module
   initialiser) calls it: only tests reach it, or nothing at all. *)
let dead_exports config (graph : Lint_callgraph.t) =
  let open Lint_callgraph in
  let under prefixes n =
    List.exists (fun p -> Lint_tast.has_dot_prefix ~prefix:p n.id) prefixes
  in
  let reached =
    reachable graph ~roots:(under config.roots) ~extra:graph.inits
  in
  List.filter_map
    (fun n ->
      if n.exported && under config.export_scope n
         && not (Hashtbl.mem reached n.id)
      then
        Some
          (mk_diag ~rule:"typ-dead-export" ~file:n.unit_path ~loc:n.def_loc
             (Printf.sprintf
                "public value %s is reached from no entry point (bin/, \
                 bench/, perfbench/, examples/) and no module initialiser; \
                 delete it with the tests that check only it, or waive it \
                 naming the test that uses it as an oracle"
                n.id))
      else None)
    (sorted_nodes graph)

(* ------------------------------------------------------------------ *)
(* Combined                                                            *)

(* Run the four passes over a prebuilt graph.  [suppress_for] memoizes
   waiver tables per source file; taint consults it during analysis
   (sanctioned seeds), and the caller applies it again to the final
   diagnostics uniformly. *)
let analyze ?(config = default_config) graph ~suppress_for =
  taint config graph ~suppress_for
  @ phase_flow config graph
  @ races graph
  @ dead_exports config graph
