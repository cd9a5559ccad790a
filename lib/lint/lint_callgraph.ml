(* Cross-module call graph over the typed tree.

   A node is a module-level value binding ([let f ... =] at the top of a
   unit or inside a nested [module M = struct ... end]); everything
   defined beneath it — local functions, closures, loops — contributes
   its references to that node.  Edges are resolved against the set of
   nodes built from ALL loaded units, so a call from [lib/dist/bfs.ml]
   into [lib/net/engine.ml] is a real edge, not a token match.

   Besides the edges, the walk records the per-node facts the typed
   passes consume:

   - every reference, as a normalized dotted name with the enclosing
     phase depth (is this occurrence lexically inside a
     [Rounds.with_phase] callback?) — the determinism-taint pass
     classifies seed references out of these, and the phase-flow pass
     classifies broadcast-primitive references;
   - the string-literal labels passed to [with_phase]-family calls, for
     taxonomy validation on resolved calls rather than source tokens.

   References through [f @@ x] / [x |> f] are unwrapped so
   [with_phase acc "p" @@ fun () -> ...] opens a phase scope exactly like
   the parenthesised form.  An application carrying a [~phases:...]
   argument marks that call edge as phased: the callee routes its charges
   through [with_phases] internally (the Solver.solve convention).

   Code that runs when a module is initialised ([let () = ...],
   [let _ = ...], bare top-level expressions) has no binding to hang it
   on; it is collected into one init node per module, kept apart from
   the named nodes in [inits] so only the passes that ask for it (the
   dead-export pass roots its walk there) ever see it. *)

type ref_info = {
  name : string;  (** normalized dotted name, aliases resolved *)
  rloc : Location.t;
  phased : bool;  (** occurs under a with_phase scope / ~phases call *)
}

type node = {
  id : string;  (** dotted: [Lbcc_net.Engine.run] *)
  unit_path : string;
  def_loc : Location.t;
  exported : bool;  (** declared in its unit's interface *)
  mutable refs : ref_info list;  (** in source order *)
  mutable phase_labels : (string * Location.t) list;
  mutable calls : (node * Location.t * bool) list;  (** resolved, source order *)
}

type t = {
  nodes : (string, node) Hashtbl.t;  (** by id *)
  order : string list;  (** sorted ids, the deterministic iteration order *)
  inits : node list;  (** module initialisers, sorted by id *)
  units : Lint_tast.unit_info list;
}

let node t id = Hashtbl.find_opt t.nodes id

let sorted_nodes t = List.filter_map (fun id -> node t id) t.order

(* with_phase / with_phase_opt / with_phases, whatever module they live
   in: solver.ml defines a local [with_phases] wrapper and the rule must
   see through it. *)
let is_phase_opener name =
  match Lint_tast.last_component name with
  | "with_phase" | "with_phase_opt" | "with_phases" -> true
  | _ -> false

let is_pipe name =
  match name with "Stdlib.@@" | "Stdlib.|>" | "@@" | "|>" -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Per-unit fact collection                                            *)

(* The leftmost identifier of an expression, looking through function
   application: [head_name (f x y)] is [f]'s name. *)
let rec head_name aliases (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some (Lint_tast.resolve aliases p)
  | Typedtree.Texp_apply (f, _) -> head_name aliases f
  | _ -> None

let collect_unit ~(unit : Lint_tast.unit_info) ~add_node ~add_init ~add_alias
    =
  let aliases = Lint_tast.alias_map unit.structure in
  (* Module-level value binders seen so far, by unique ident name.  A bare
     identifier that is not one of them is a local (a parameter, a [let]
     inside a body) and names no node; OCaml's scoping means a body only
     refers to binders bound before it or in its own [let rec] group. *)
  let binders = Hashtbl.create 64 in
  let created = ref [] in
  let new_node ~id ~def_loc ~exported =
    let n =
      { id; unit_path = unit.path; def_loc; exported; refs = [];
        phase_labels = []; calls = [] }
    in
    created := n :: !created;
    n
  in
  let init_nodes = Hashtbl.create 4 in
  let init_node module_path =
    match Hashtbl.find_opt init_nodes module_path with
    | Some n -> n
    | None ->
        let n =
          new_node
            ~id:(String.concat "." (module_path @ [ "(init)" ]))
            ~def_loc:Location.none ~exported:false
        in
        Hashtbl.replace init_nodes module_path n;
        add_init n;
        n
  in
  let exported rel =
    match unit.exports with
    | None -> true
    | Some names -> List.mem (String.concat "." rel) names
  in
  let rec bind_nodes ~module_path ~rel (str : Typedtree.structure) =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.Typedtree.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                List.iter
                  (fun id -> Hashtbl.replace binders (Ident.unique_name id) ())
                  (Typedtree.pat_bound_idents vb.Typedtree.vb_pat))
              vbs;
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match Typedtree.pat_bound_idents vb.Typedtree.vb_pat with
                | [] ->
                    collect_body ~node:(init_node module_path)
                      vb.Typedtree.vb_expr
                | id :: _ ->
                    let n =
                      new_node
                        ~id:(String.concat "." (module_path @ [ Ident.name id ]))
                        ~def_loc:vb.Typedtree.vb_pat.Typedtree.pat_loc
                        ~exported:(exported (rel @ [ Ident.name id ]))
                    in
                    add_node n;
                    collect_body ~node:n vb.Typedtree.vb_expr)
              vbs
        | Typedtree.Tstr_eval (e, _) ->
            collect_body ~node:(init_node module_path) e
        | Typedtree.Tstr_module { mb_id = Some id; mb_expr; _ }
          when Lint_tast.module_target aliases mb_expr <> None ->
            Option.iter
              (add_alias (String.concat "." (module_path @ [ Ident.name id ])))
              (Lint_tast.module_target aliases mb_expr)
        | Typedtree.Tstr_module
            { mb_id = Some id; mb_expr = { mod_desc = Tmod_structure sub; _ }; _ }
          ->
            bind_nodes
              ~module_path:(module_path @ [ Ident.name id ])
              ~rel:(rel @ [ Ident.name id ]) sub
        | Typedtree.Tstr_module
            {
              mb_id = Some id;
              mb_expr =
                {
                  mod_desc =
                    Tmod_constraint ({ mod_desc = Tmod_structure sub; _ }, _, _, _);
                  _;
                };
              _;
            } ->
            bind_nodes
              ~module_path:(module_path @ [ Ident.name id ])
              ~rel:(rel @ [ Ident.name id ]) sub
        | _ -> ())
      str.Typedtree.str_items
  and collect_body ~node expr =
    let phase_depth = ref 0 in
    let open Tast_iterator in
    let record name loc =
      node.refs <-
        { name; rloc = loc; phased = !phase_depth > 0 } :: node.refs
    in
    let record_phase_label (arg : Typedtree.expression) =
      match arg.Typedtree.exp_desc with
      | Typedtree.Texp_constant (Asttypes.Const_string (s, _, _)) ->
          node.phase_labels <- (s, arg.Typedtree.exp_loc) :: node.phase_labels
      | _ -> ()
    in
    let rec expr_iter sub (e : Typedtree.expression) =
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_ident (Path.Pident id, _, _)
        when not (Hashtbl.mem binders (Ident.unique_name id)) ->
          ()
      | Typedtree.Texp_ident (p, _, _) ->
          record (Lint_tast.resolve aliases p) e.Typedtree.exp_loc
      | Typedtree.Texp_apply (f, args) ->
          let fname = head_name aliases f in
          let opens_phase =
            match fname with
            | Some n when is_phase_opener n -> true
            | Some n when is_pipe n ->
                (* with_phase acc "p" @@ thunk  /  thunk |> with_phase acc "p" *)
                List.exists
                  (fun (_, arg) ->
                    match arg with
                    | Some a -> (
                        match head_name aliases a with
                        | Some h -> is_phase_opener h
                        | None -> false)
                    | None -> false)
                  args
            | _ -> false
          in
          (* A ~phases:[...] argument means the callee scopes its own
             charges; the call edge counts as phased. *)
          let callee_phased =
            List.exists
              (fun (lbl, arg) ->
                match (lbl, arg) with
                | (Asttypes.Labelled "phases" | Asttypes.Optional "phases"),
                  Some _ ->
                    true
                | _ -> false)
              args
          in
          if opens_phase then begin
            (* The label literal is a direct argument in the plain form,
               or inside the partial application on one side of @@/|>. *)
            let label_args (e : Typedtree.expression) =
              match e.Typedtree.exp_desc with
              | Typedtree.Texp_apply (g, gargs) -> (
                  match head_name aliases g with
                  | Some h when is_phase_opener h ->
                      List.iter
                        (fun (_, arg) -> Option.iter record_phase_label arg)
                        gargs
                  | _ -> ())
              | _ -> ()
            in
            List.iter
              (fun (_, arg) ->
                Option.iter
                  (fun a ->
                    record_phase_label a;
                    label_args a)
                  arg)
              args;
            expr_iter sub f;
            incr phase_depth;
            List.iter (fun (_, arg) -> Option.iter (expr_iter sub) arg) args;
            decr phase_depth
          end
          else if callee_phased then begin
            incr phase_depth;
            expr_iter sub f;
            decr phase_depth;
            List.iter (fun (_, arg) -> Option.iter (expr_iter sub) arg) args
          end
          else default_iterator.expr sub e
      | _ -> default_iterator.expr sub e
    in
    let it = { default_iterator with expr = expr_iter } in
    it.expr it expr
  in
  bind_nodes
    ~module_path:(String.split_on_char '.' unit.modname)
    ~rel:[] unit.structure;
  (* Facts were consed in; restore source order. *)
  List.iter
    (fun n ->
      n.refs <- List.rev n.refs;
      n.phase_labels <- List.rev n.phase_labels)
    !created

(* ------------------------------------------------------------------ *)
(* Resolution                                                          *)

(* A reference resolves to a node by (in order): exact dotted name; the
   name qualified by an enclosing module of the referring node, innermost
   first (module-local [helper], also from inside a nested module); a
   unique dotted suffix of length >= 2 ([Engine.run] from a fixture's
   local [Engine] module).  Single-component suffixes are too ambiguous
   to use. *)
let build units =
  let nodes = Hashtbl.create 256 in
  let order = ref [] in
  let add_node n =
    if not (Hashtbl.mem nodes n.id) then begin
      Hashtbl.replace nodes n.id n;
      order := n.id :: !order
    end
  in
  let inits = ref [] in
  let add_init n = inits := n :: !inits in
  (* Module aliases by dotted path, across units: [Lbcc_core.Lbcc.Cache]
     is [Lbcc_service.Cache]. *)
  let module_aliases = Hashtbl.create 64 in
  let add_alias path target = Hashtbl.replace module_aliases path target in
  List.iter
    (fun unit -> collect_unit ~unit ~add_node ~add_init ~add_alias)
    units;
  (* Rewrite the longest aliased module prefix of a dotted name, until
     none is left (a bounded number of times, against alias cycles). *)
  let rec unalias fuel name =
    let segs = String.split_on_char '.' name in
    let n = List.length segs in
    let rec try_prefix k =
      if k < 1 then name
      else
        let prefix = String.concat "." (List.filteri (fun i _ -> i < k) segs) in
        match Hashtbl.find_opt module_aliases prefix with
        | Some target ->
            let rest = List.filteri (fun i _ -> i >= k) segs in
            unalias (fuel - 1) (String.concat "." (target :: rest))
        | None -> try_prefix (k - 1)
    in
    if fuel = 0 then name else try_prefix (n - 1)
  in
  let order = List.sort String.compare !order in
  let inits = List.sort (fun a b -> String.compare a.id b.id) !inits in
  (* Suffix index: every >=2-component dotted suffix of every node id. *)
  let by_suffix = Hashtbl.create 256 in
  List.iter
    (fun id ->
      let segs = String.split_on_char '.' id in
      let n = List.length segs in
      let rec suffixes i =
        if n - i >= 2 then begin
          let s =
            String.concat "." (List.filteri (fun j _ -> j >= i) segs)
          in
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_suffix s) in
          Hashtbl.replace by_suffix s (prev @ [ id ]);
          suffixes (i + 1)
        end
      in
      suffixes 0)
    order;
  let resolve_calls n =
    (* The enclosing module paths of this node, innermost first. *)
    let rec enclosing id =
      match String.rindex_opt id '.' with
      | Some i ->
          let outer = String.sub id 0 i in
          outer :: enclosing outer
      | None -> []
    in
    let scopes = enclosing n.id in
    n.calls <-
      List.filter_map
        (fun r ->
          let r = { r with name = unalias 8 r.name } in
          let candidates =
            match Hashtbl.find_opt nodes r.name with
            | Some m -> [ m ]
            | None -> (
                match
                  List.find_map
                    (fun scope -> Hashtbl.find_opt nodes (scope ^ "." ^ r.name))
                    scopes
                with
                | Some m -> [ m ]
                | None ->
                    if String.contains r.name '.' then
                      List.filter_map
                        (fun cid -> Hashtbl.find_opt nodes cid)
                        (Option.value ~default:[]
                           (Hashtbl.find_opt by_suffix r.name))
                    else [])
          in
          match candidates with
          | [] -> None
          | [ m ] when m.id = n.id -> None (* self loop *)
          | ms ->
              Some
                (List.filter_map
                   (fun m ->
                     if m.id = n.id then None else Some (m, r.rloc, r.phased))
                   ms))
        n.refs
      |> List.concat
  in
  List.iter (fun id -> Option.iter resolve_calls (Hashtbl.find_opt nodes id)) order;
  List.iter resolve_calls inits;
  { nodes; order; inits; units }

(* Shortest call chain from any node satisfying [root] to [target], as a
   list of node ids (root first).  BFS over the sorted node order keeps
   the witness deterministic.  [use_edge] filters edges (the phase pass
   walks only unphased edges); [stop] marks sink nodes whose outgoing
   edges are not expanded (the phase pass stops at broadcast primitives:
   their internals implement the accounting, they do not consume it). *)
let witness ?(use_edge = fun _ -> true) ?(stop = fun _ -> false) t ~roots
    ~target =
  let parent = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun n ->
      if roots n && not (Hashtbl.mem parent n.id) then begin
        Hashtbl.replace parent n.id None;
        Queue.add n queue
      end)
    (sorted_nodes t);
  let found = ref None in
  while !found = None && not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    if n.id = target then found := Some n
    else if not (stop n) then
      List.iter
        (fun (m, _, phased) ->
          if use_edge phased && not (Hashtbl.mem parent m.id) then begin
            Hashtbl.replace parent m.id (Some n.id);
            Queue.add m queue
          end)
        n.calls
  done;
  match !found with
  | None -> None
  | Some _ ->
      let rec unwind id acc =
        match Hashtbl.find_opt parent id with
        | Some (Some p) -> unwind p (id :: acc)
        | _ -> id :: acc
      in
      Some (unwind target [])

(* All nodes reachable from [roots] and the [extra] start nodes
   (inclusive), optionally restricted to unphased edges and truncated at
   [stop] sinks. *)
let reachable ?(use_edge = fun _ -> true) ?(stop = fun _ -> false)
    ?(extra = []) t ~roots =
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun n ->
      if not (Hashtbl.mem seen n.id) then begin
        Hashtbl.replace seen n.id ();
        Queue.add n queue
      end)
    (List.filter roots (sorted_nodes t) @ extra);
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    if stop n then ()
    else
    List.iter
      (fun (m, _, phased) ->
        if use_edge phased && not (Hashtbl.mem seen m.id) then begin
          Hashtbl.replace seen m.id ();
          Queue.add m queue
        end)
      n.calls
  done;
  seen
