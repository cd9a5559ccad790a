(* Typed-tier front end: loads the Typedtree the compiler already produced.

   The untyped rules work on the parsetree, so a nondeterminism source
   laundered through [module R = Random] or a helper in another file is
   invisible to them.  This module feeds the typed passes
   (Lint_callgraph / Lint_typed / Lint_race) with resolved trees from two
   sources:

   - the [.cmt] files dune emits next to every compiled module
     ([load_cmts]; the normal [lbcc_lint --typed] path), and
   - in-memory typechecking of a source string against the stdlib alone
     ([type_source]; how the fixture corpus under
     [test/lint_fixtures/typed/] is exercised hermetically).

   It also owns the path vocabulary shared by the typed passes: every
   [Path.t] is rendered as a dotted string with dune's [Lib__Module]
   mangling undone and file-local module aliases ([module Pool =
   Lbcc_util.Pool]) substituted, so a rule can match [Pool.parallel_for]
   and [Lbcc_util.Pool.parallel_for] as the same thing. *)

type unit_info = {
  path : string;  (** root-relative source path, e.g. [lib/net/engine.ml] *)
  modname : string;  (** dotted module name, e.g. [Lbcc_net.Engine] *)
  structure : Typedtree.structure;
  exports : string list option;
      (** the values the unit's interface declares, dotted relative to the
          unit ([Delta.apply]); [None] when it has no interface, so every
          top-level binding is public *)
  stale : bool;  (** the source file is newer than its [.cmt] *)
}

(* ------------------------------------------------------------------ *)
(* Dotted names                                                        *)

(* Undo dune's wrapped-library mangling: [Lbcc_net__Engine] is the
   compilation unit for [Lbcc_net.Engine]. *)
let normalize_modname s =
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* File-local module aliases, keyed by the unique ident name (which
   carries the stamp, so shadowing cannot confuse two binders). *)
type aliases = (string, string) Hashtbl.t

let rec resolve (aliases : aliases) p =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt aliases (Ident.unique_name id) with
      | Some target -> target
      | None -> normalize_modname (Ident.name id))
  | Path.Pdot (p, s) -> resolve aliases p ^ "." ^ s
  | Path.Papply (p, _) -> resolve aliases p
  | Path.Pextra_ty (p, _) -> resolve aliases p

(* Strip [Stdlib.] so classifier tables list [Random.int], not both
   spellings. *)
let drop_stdlib s =
  let prefix = "Stdlib." in
  if
    String.length s > String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  then String.sub s (String.length prefix) (String.length s - String.length prefix)
  else s

(* Last [k] dot-separated components of a dotted name. *)
let suffix ~k s =
  let segs = String.split_on_char '.' s in
  let n = List.length segs in
  if n <= k then s
  else String.concat "." (List.filteri (fun i _ -> i >= n - k) segs)

let last_component s = suffix ~k:1 s

let has_dot_prefix ~prefix s =
  s = prefix
  || String.length s > String.length prefix
     && String.sub s 0 (String.length prefix) = prefix
     && s.[String.length prefix] = '.'

(* The dotted module a module expression aliases, if it is one. *)
let rec module_target aliases (me : Typedtree.module_expr) =
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> Some (resolve aliases p)
  | Typedtree.Tmod_constraint (me, _, _, _) -> module_target aliases me
  | _ -> None

(* Collect the alias table for a structure.  Aliases may chain
   ([module P = Pool] after [module Pool = Lbcc_util.Pool]), so targets
   are resolved through the table built so far; Tast_iterator visits in
   source order, which makes that sound. *)
let alias_map structure =
  let aliases : aliases = Hashtbl.create 16 in
  let module_target = module_target aliases in
  let open Tast_iterator in
  let structure_item sub (item : Typedtree.structure_item) =
    (match item.Typedtree.str_desc with
    | Typedtree.Tstr_module { mb_id = Some id; mb_expr; _ } -> (
        match module_target mb_expr with
        | Some target -> Hashtbl.replace aliases (Ident.unique_name id) target
        | None -> ())
    | _ -> ());
    default_iterator.structure_item sub item
  in
  let expr sub (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_letmodule (Some id, _, _, me, _) -> (
        match module_target me with
        | Some target -> Hashtbl.replace aliases (Ident.unique_name id) target
        | None -> ())
    | _ -> ());
    default_iterator.expr sub e
  in
  let it = { default_iterator with structure_item; expr } in
  it.structure it structure;
  aliases

(* ------------------------------------------------------------------ *)
(* Loading cmt files                                                   *)

let mtime path = try Some (Unix.stat path).Unix.st_mtime with Unix.Unix_error _ -> None

let rec walk_files dir acc =
  match Sys.readdir dir with
  | entries ->
      Array.fold_left
        (fun acc name ->
          let p = Filename.concat dir name in
          if Sys.is_directory p then walk_files p acc
          else if Filename.check_suffix name ".cmt" then p :: acc
          else acc)
        acc entries
  | exception Sys_error _ -> acc

let under dir path =
  let p = dir ^ "/" in
  String.length path > String.length p
  && String.sub path 0 (String.length p) = p

let in_lib = under "lib"

(* The executables' source trees.  Their units are call-graph roots only
   (the dead-export pass starts from them); every other typed pass keeps
   to lib/. *)
let exe_dirs = [ "bin"; "bench"; "perfbench"; "examples" ]

(* The value paths an interface declares, dotted relative to the unit,
   nested signatures included. *)
let interface_values (sg : Typedtree.signature) =
  let rec go prefix (sg : Typedtree.signature) =
    List.concat_map
      (fun (item : Typedtree.signature_item) ->
        match item.Typedtree.sig_desc with
        | Typedtree.Tsig_value vd -> [ prefix ^ vd.Typedtree.val_name.Location.txt ]
        | Typedtree.Tsig_module
            {
              md_name = { txt = Some name; _ };
              md_type = { mty_desc = Tmty_signature sub; _ };
              _;
            } ->
            go (prefix ^ name ^ ".") sub
        | _ -> [])
      sg.Typedtree.sig_items
  in
  go "" sg

(* The interface of the implementation at [cmt_path], from the [.cmti]
   dune writes beside it. *)
let read_exports cmt_path =
  let cmti = Filename.remove_extension cmt_path ^ ".cmti" in
  if not (Sys.file_exists cmti) then None
  else
    match Cmt_format.read_cmt cmti with
    | { Cmt_format.cmt_annots = Cmt_format.Interface sg; _ } ->
        Some (interface_values sg)
    | _ | (exception _) -> None

let load_unit ~root cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception _ -> None
  | cmt -> (
      match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Implementation structure, Some src
        when Filename.check_suffix src ".ml" ->
          let stale =
            match (mtime (Filename.concat root src), mtime cmt_path) with
            | Some src_t, Some cmt_t -> src_t > cmt_t
            | _ -> false
          in
          Some
            {
              path = src;
              modname = normalize_modname cmt.Cmt_format.cmt_modname;
              structure;
              exports = read_exports cmt_path;
              stale;
            }
      | _ -> None)

(* The [.ml] sources of an executable directory, root-relative. *)
let exe_sources ~root dir =
  match Sys.readdir (Filename.concat root dir) with
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n ".ml")
      |> List.map (fun n -> dir ^ "/" ^ n)
  | exception Sys_error _ -> []

let build_first ?(target = "") fmt =
  Printf.ksprintf
    (fun what ->
      Error
        (Printf.sprintf
           "%s: run `dune build%s` first so the typed pass can read the .cmt \
            files" what target))
    fmt

(* Load every implementation cmt under [root]/_build/default/lib, plus
   those of the executables in [exe_dirs].  Returns [Error] with an
   actionable message when the build directory is absent, holds no lib
   cmts, or lacks the cmt of some executable source — the CLI turns that
   into the "run dune build first" exit. *)
let load_cmts ~root =
  let build = Filename.concat root "_build/default" in
  let lib_build = Filename.concat build "lib" in
  if not (Sys.file_exists lib_build && Sys.is_directory lib_build) then
    build_first "no build artifacts under %s" lib_build
  else
    let cmts =
      List.fold_left
        (fun acc d -> walk_files (Filename.concat build d) acc)
        (walk_files lib_build []) exe_dirs
    in
    let units =
      List.filter
        (fun u -> List.exists (fun d -> under d u.path) ("lib" :: exe_dirs))
        (List.filter_map (load_unit ~root) cmts)
    in
    (* One unit per source path (there is only the byte cmt, but be safe),
       in stable path order so every downstream pass is deterministic. *)
    let seen = Hashtbl.create 64 in
    let units =
      List.filter
        (fun u ->
          if Hashtbl.mem seen u.path then false
          else begin
            Hashtbl.replace seen u.path ();
            true
          end)
        (List.sort (fun a b -> String.compare a.path b.path) units)
    in
    let missing =
      List.filter
        (fun src -> not (Hashtbl.mem seen src))
        (List.concat_map (exe_sources ~root) exe_dirs)
    in
    if not (List.exists (fun u -> in_lib u.path) units) then
      build_first "no .cmt files under %s" lib_build
    else
      match missing with
      | src :: _ ->
          (* A native-only executable build writes no .cmt; @check does. *)
          build_first ~target:" @check" "no .cmt for %s under %s" src build
      | [] -> Ok units

(* ------------------------------------------------------------------ *)
(* In-memory typing (fixtures)                                         *)

let typing_initialized = ref false

let init_typing () =
  if not !typing_initialized then begin
    typing_initialized := true;
    Compmisc.init_path ();
    (* Fixtures are linted, not compiled: compiler warnings about them are
       noise on the test output. *)
    ignore (Warnings.parse_options false "-a" : Warnings.alert option)
  end

(* Typecheck [source] against the stdlib alone.  Any parse or type error
   comes back as a diagnostic (rule [parse-error]) rather than an
   exception, mirroring Lint_driver.lint_source. *)
let type_source ~path ~modname source =
  init_typing ();
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  Location.input_name := path;
  match
    let parsed = Parse.implementation lexbuf in
    let env = Compmisc.initial_env () in
    let structure, _, _, _, _ = Typemod.type_structure env parsed in
    structure
  with
  | structure -> Ok { path; modname; structure; exports = None; stale = false }
  | exception exn ->
      let line, msg =
        match Location.error_of_exn exn with
        | Some (`Ok err) ->
            let loc = err.Location.main.Location.loc in
            ( loc.Location.loc_start.Lexing.pos_lnum,
              Format.asprintf "%t" err.Location.main.Location.txt )
        | _ -> (1, Printexc.to_string exn)
      in
      Error
        {
          Lint_diag.rule = "parse-error";
          severity = Lint_diag.Error;
          file = path;
          line;
          col = 0;
          message = Printf.sprintf "file does not typecheck: %s" msg;
        }
