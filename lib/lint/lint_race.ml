(* Static race detector for parallel regions.

   The worker pool's contract (lib/util/pool.mli) is that a chunk body
   passed to [Pool.parallel_for] only
   writes state that is disjoint per index — that is what makes every
   pool size compute bit-identical results.  A closure that writes a
   captured ref, a captured mutable record field, or a captured
   array/bytes cell at an index NOT derived from the chunk's own
   induction variables breaks that contract silently: the program still
   typechecks, still passes single-domain tests, and only diverges (or
   corrupts) under a multi-domain pool.

   For every closure reaching a parallel primitive — a literal [fun lo
   hi -> ...] or a let-bound body resolved within the same unit
   ([Pool.parallel_for pool ~chunk ~n body]) — the pass computes the set
   of idents bound INSIDE the closure (parameters, let-bindings, for
   indices, nested closures' binders) and flags:

   - [r := v] / [incr r] / [decr r] where [r] is captured;
   - [e.f <- v] where the mutable-field target's root ident is captured;
   - [a.(i) <- v] / [Bytes.set] / [unsafe_] variants where the
     array/bytes root is captured and [i] mentions no closure-local
     ident (a chunk-independent cell: the classic lost-update shape);
   - [Atomic.set]/[exchange]/[fetch_and_add]/[compare_and_set] on a
     captured atomic (atomics do not tear, but their interleaving is
     schedule-dependent, which already breaks replayability);
   - growth/removal on captured stdlib containers (Hashtbl.add/replace/
     remove/reset/clear, Buffer.add_*/clear/reset, Queue and Stack
     mutation).

   Writes hidden behind a function call ([gather buf v] mutating [buf])
   are out of reach of a per-closure analysis; DESIGN.md §13 records
   that boundary.  Chunk-local state — anything bound inside the closure
   — is exempt by construction, so per-chunk scratch and accumulator
   refs lint clean. *)

let parallel_suffixes = [ "Pool.parallel_for" ]

let indexed_writers =
  [
    "Array.set"; "Array.unsafe_set"; "Bytes.set"; "Bytes.unsafe_set";
    "Float.Array.set"; "Float.Array.unsafe_set"; "Bigarray.Array1.set";
  ]

let atomic_writers =
  [
    "Atomic.set"; "Atomic.exchange"; "Atomic.fetch_and_add"; "Atomic.incr";
    "Atomic.decr"; "Atomic.compare_and_set";
  ]

let container_mutators =
  [
    "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Buffer.add_string"; "Buffer.add_char";
    "Buffer.add_bytes"; "Buffer.add_subbytes"; "Buffer.add_substring";
    "Buffer.clear"; "Buffer.reset"; "Queue.add"; "Queue.push"; "Queue.pop";
    "Queue.take"; "Queue.clear"; "Stack.push"; "Stack.pop"; "Stack.clear";
  ]

type finding = { floc : Location.t; message : string }

(* ------------------------------------------------------------------ *)
(* Expression helpers                                                  *)

(* The root ident of a write target, looking through field projections
   ([t.buf]), derefs ([!r] — an apply of Stdlib.!) and type constraints:
   the capture question is about the binder the data flows from. *)
let rec root_ident (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> Some id
  | Typedtree.Texp_ident _ -> None
  | Typedtree.Texp_field (e, _, _) -> root_ident e
  | Typedtree.Texp_apply (f, [ (Asttypes.Nolabel, Some arg) ]) -> (
      match f.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, _, _)
        when Lint_tast.last_component (Path.name p) = "!" ->
          root_ident arg
      | _ -> None)
  | _ -> None

let positional args =
  List.filter_map
    (fun (lbl, arg) ->
      match (lbl, arg) with Asttypes.Nolabel, Some e -> Some e | _ -> None)
    args

(* Every ident bound anywhere inside [e]: function parameters, patterns
   of let/match/cases, for-loop indices, let-module bodies... *)
let bound_idents_in (e : Typedtree.expression) =
  let acc = Hashtbl.create 32 in
  let add id = Hashtbl.replace acc (Ident.unique_name id) () in
  let open Tast_iterator in
  let pat :
      'k. Tast_iterator.iterator -> 'k Typedtree.general_pattern -> unit =
   fun sub p ->
    List.iter add (Typedtree.pat_bound_idents p);
    default_iterator.pat sub p
  in
  let expr sub (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_function { param; _ } -> add param
    | Typedtree.Texp_for (id, _, _, _, _, _) -> add id
    | Typedtree.Texp_letmodule (Some id, _, _, _, _) -> add id
    | _ -> ());
    default_iterator.expr sub e
  in
  let it = { default_iterator with expr; pat } in
  it.expr it e;
  acc

let mentions_local locals (e : Typedtree.expression) =
  let found = ref false in
  let open Tast_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) ->
        if Hashtbl.mem locals (Ident.unique_name id) then found := true
    | _ -> ());
    if not !found then default_iterator.expr sub e
  in
  let it = { default_iterator with expr } in
  it.expr it e;
  !found

(* ------------------------------------------------------------------ *)
(* Closure body analysis                                               *)

let target_name (e : Typedtree.expression) =
  match root_ident e with Some id -> Ident.name id | None -> "<expression>"

let check_closure ~aliases ~primitive (closure : Typedtree.expression) =
  let locals = bound_idents_in closure in
  let captured e =
    match root_ident e with
    | Some id -> not (Hashtbl.mem locals (Ident.unique_name id))
    | None -> false
  in
  let findings = ref [] in
  let flag floc fmt =
    Printf.ksprintf
      (fun message -> findings := { floc; message } :: !findings)
      fmt
  in
  let open Tast_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_setfield (recv, _, lbl, _) ->
        if captured recv then
          flag e.Typedtree.exp_loc
            "write to mutable field %s.%s captured by a %s chunk body: \
             chunk bodies may only write state disjoint per index \
             (pool.mli contract)"
            (target_name recv) lbl.Types.lbl_name primitive
    | Typedtree.Texp_apply (f, args) -> (
        match f.Typedtree.exp_desc with
        | Typedtree.Texp_ident (p, _, _) -> (
            let name = Lint_tast.drop_stdlib (Lint_tast.resolve aliases p) in
            let two = Lint_tast.suffix ~k:2 name in
            let three = Lint_tast.suffix ~k:3 name in
            match (Lint_tast.last_component name, positional args) with
            | (":=" | "incr" | "decr"), r :: _ when captured r ->
                flag e.Typedtree.exp_loc
                  "captured ref %s assigned inside a %s chunk body: every \
                   lane reads and writes the same cell, so the result \
                   depends on the chunk schedule"
                  (target_name r) primitive
            | _, recv :: idx :: _
              when (List.mem two indexed_writers || List.mem three indexed_writers)
                   && captured recv
                   && not (mentions_local locals idx) ->
                flag e.Typedtree.exp_loc
                  "captured %s written at index independent of the chunk \
                   (%s on %s): distinct lanes hit the same cell; index by \
                   the chunk's own induction variable or keep the buffer \
                   chunk-local"
                  (Lint_tast.last_component two) two (target_name recv)
            | _, recv :: _ when List.mem two atomic_writers && captured recv ->
                flag e.Typedtree.exp_loc
                  "%s on captured %s inside a %s chunk body: atomics do \
                   not tear but their interleaving is schedule-dependent, \
                   which breaks bit-identical replay across pool sizes"
                  two (target_name recv) primitive
            | _, recv :: _ when List.mem two container_mutators && captured recv
              ->
                flag e.Typedtree.exp_loc
                  "%s mutates captured container %s inside a %s chunk \
                   body: container mutation is neither atomic nor \
                   index-disjoint"
                  two (target_name recv) primitive
            | _ -> ())
        | _ -> ())
    | _ -> ());
    default_iterator.expr sub e
  in
  let it = { default_iterator with expr } in
  it.expr it closure;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Finding the parallel regions                                        *)

(* Let-bound closures within the unit, so [let body = fun lo hi -> ... in
   Pool.parallel_for pool ~chunk ~n body] is analyzed like a literal
   closure.  Idents are unique (stamped), so one flat table is sound. *)
let local_closures (structure : Typedtree.structure) =
  let tbl = Hashtbl.create 32 in
  let open Tast_iterator in
  let value_binding sub (vb : Typedtree.value_binding) =
    (match
       (vb.Typedtree.vb_pat.Typedtree.pat_desc, vb.Typedtree.vb_expr.Typedtree.exp_desc)
     with
    | Typedtree.Tpat_var (id, _), Typedtree.Texp_function _ ->
        Hashtbl.replace tbl (Ident.unique_name id) vb.Typedtree.vb_expr
    | _ -> ());
    default_iterator.value_binding sub vb
  in
  let it = { default_iterator with value_binding } in
  it.structure it structure;
  tbl

let closure_arg ~closures (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function _ -> Some e
  | Typedtree.Texp_ident (Path.Pident id, _, _) ->
      Hashtbl.find_opt closures (Ident.unique_name id)
  | _ -> None

let check_unit (unit : Lint_tast.unit_info) =
  let aliases = Lint_tast.alias_map unit.structure in
  let closures = local_closures unit.structure in
  let findings = ref [] in
  let open Tast_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_apply (f, args) -> (
        match f.Typedtree.exp_desc with
        | Typedtree.Texp_ident (p, _, _) -> (
            let name = Lint_tast.resolve aliases p in
            let two = Lint_tast.suffix ~k:2 name in
            if List.mem two parallel_suffixes then
              (* the chunk body is the last positional argument *)
              let body =
                match List.rev (positional args) with
                | b :: _ -> Some b
                | [] -> None
              in
              match Option.map (closure_arg ~closures) body with
              | Some (Some closure) ->
                  findings :=
                    !findings @ check_closure ~aliases ~primitive:two closure
              | _ -> ())
        | _ -> ())
    | _ -> ());
    default_iterator.expr sub e
  in
  let it = { default_iterator with expr } in
  it.structure it unit.structure;
  !findings
