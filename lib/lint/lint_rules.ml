(* The lbcc-lint rule set.

   Three families, each protecting an invariant the test suite and the
   paper-conformance harness rely on but the type system cannot see:

   - [det-*]  determinism: protocol outputs must be bit-identical across
     domain-pool sizes and across runs ([test_determinism.ml]), so hidden
     sources of nondeterminism — ambient RNG, hash-order iteration,
     wall-clock reads, raw domains, polymorphic compare on float-carrying
     values — are banned outside the modules that exist to contain them.

   - [acct-*] round accounting: every broadcast must be charged to the
     accountant under a documented phase label, or the measured round/bit
     counts no longer witness Thm 1.1-1.4 / Lem 3.2.

   - [hyg-*]  hygiene: constructs that silently discard evidence
     ([Obj.magic], unannotated [ignore] of a call, [assert false]).

   All checks are purely syntactic (compiler-libs parsetree; no typing
   pass), so each rule errs on the side of an explicit waiver comment on
   or above the offending line (grammar in Lint_suppress / DESIGN.md §8). *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Rule table                                                          *)

type rule = {
  name : string;
  severity : Lint_diag.severity;
  doc : string;
  applies : string -> bool;
}

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let in_dir d path = has_prefix ~prefix:(d ^ "/") path

(* Modules that implement or support the broadcast protocols: everything
   under lib/ except the containment modules (lib/util seeds the RNG and
   owns the domain pool; lib/obs owns the clock) and this linter. *)
let protocol_path p =
  in_dir "lib" p
  && (not (in_dir "lib/util" p))
  && (not (in_dir "lib/obs" p))
  && not (in_dir "lib/lint" p)

let accounting_path p =
  (not (in_dir "lib/util" p))
  && (not (in_dir "lib/obs" p))
  && (not (in_dir "lib/lint" p))
  && p <> "lib/net/rounds.ml"

let everywhere _ = true

(* The documented phase vocabulary (DESIGN.md §8): every [with_phase]
   label and every non-final segment of a charge label must come from this
   list.  Leaf charge labels are free-form kebab-case. *)
let phase_vocabulary =
  [ "prepare"; "query"; "solve"; "preprocess"; "factor"; "certify"; "sparsify";
    "spanner"; "mcmf"; "ipm"; "retransmit"; "byz-echo"; "engine"; "scale";
    "serve"; "admit"; "coalesce"; "update"; "delta" ]

let rules =
  [
    {
      name = "det-unseeded-random";
      severity = Lint_diag.Error;
      doc =
        "Stdlib Random (ambient, self-seeding state) is banned outside \
         lib/util: protocols draw randomness from the seeded, splittable \
         Lbcc_util.Prng so runs are reproducible (Thm 1.2/1.3 conformance, \
         test_determinism fingerprints).";
      applies = (fun p -> not (in_dir "lib/util" p));
    };
    {
      name = "det-unordered-hashtbl";
      severity = Lint_diag.Error;
      doc =
        "Hashtbl.iter/Hashtbl.fold enumerate in hash-bucket order, which is \
         not a stable public contract; in protocol modules any order-\
         sensitive use silently breaks cross-run determinism. Use \
         Lbcc_util.Tbl.sorted_* or waive with a comment arguing order-\
         insensitivity.";
      applies = protocol_path;
    };
    {
      name = "det-wall-clock";
      severity = Lint_diag.Error;
      doc =
        "Sys.time/Unix.gettimeofday outside lib/obs: wall-clock reads in \
         protocol code make round counts and outputs timing-dependent. \
         Observability owns the clock (Trace spans); benches that measure \
         wall time on purpose carry an explicit waiver.";
      applies = (fun p -> not (in_dir "lib/obs" p));
    };
    {
      name = "det-raw-domain";
      severity = Lint_diag.Error;
      doc =
        "Domain.spawn outside lib/util/pool.ml: ad-hoc domains bypass the \
         deterministic chunk schedule of the worker pool (DESIGN.md §5b), \
         so parallel runs may diverge from sequential ones.";
      applies = (fun p -> p <> "lib/util/pool.ml");
    };
    {
      name = "det-float-poly-compare";
      severity = Lint_diag.Error;
      doc =
        "Polymorphic compare in protocol modules, or =/<> applied to a \
         syntactically float-valued operand: structural compare on float-\
         carrying values orders nan inconsistently with IEEE and silently \
         depends on representation. Use Float.compare/Int.compare or an \
         explicit comparator.";
      applies = protocol_path;
    };
    {
      name = "acct-unscoped-broadcast";
      severity = Lint_diag.Error;
      doc =
        "A broadcast primitive (Engine.run, Reliable.run, Rounds.charge*) \
         reached without an accountant lexically in scope: no with_phase \
         above it, no accountant parameter or argument. Unaccounted \
         broadcasts make the measured bounds (Thm 1.1-1.4, Lem 3.2) \
         unsound.";
      applies = accounting_path;
    };
    {
      name = "acct-phase-taxonomy";
      severity = Lint_diag.Error;
      doc =
        "A phase or charge label literal outside the documented taxonomy \
         (DESIGN.md §8): with_phase labels must be one of the vocabulary \
         segments; charge labels are kebab-case leaves optionally prefixed \
         by vocabulary phases (e.g. query/laplacian-matvec).";
      applies = accounting_path;
    };
    {
      name = "hyg-obj-magic";
      severity = Lint_diag.Error;
      doc = "Obj.magic defeats the type system; there is no sound use here.";
      applies = everywhere;
    };
    {
      name = "hyg-ignored-result";
      severity = Lint_diag.Warning;
      doc =
        "ignore applied to a function call without a type annotation: \
         annotate the discarded type (ignore (f x : t)) so dropping a \
         result — e.g. an Engine.stats or a verdict — is visibly \
         deliberate and survives refactors.";
      applies = everywhere;
    };
    {
      name = "hyg-assert-false";
      severity = Lint_diag.Error;
      doc =
        "assert false in shipped code: unreachable branches must raise a \
         descriptive exception (failwith/invalid_arg with context) or be \
         restructured away; a bare assert carries no evidence when it \
         fires in a 300-node run.";
      applies = everywhere;
    };
    {
      name = "lint-directive";
      severity = Lint_diag.Error;
      doc =
        "A malformed lbcc-lint suppression comment, or one naming an \
         unknown rule: a waiver that does not parse silently waives \
         nothing.";
      applies = everywhere;
    };
    (* Typed-tier rules (lbcc-lint --typed; cmt-based, see DESIGN.md §13).
       The [applies] predicates scope where a waiver for the rule makes
       sense; the passes themselves decide where they look. *)
    {
      name = "typ-det-taint";
      severity = Lint_diag.Error;
      doc =
        "[typed] A determinism seed (ambient Random, hash-order \
         iteration, wall-clock read, raw Domain.spawn) — possibly behind \
         aliases or helper calls — is reachable from the public \
         protocol/solver surface without routing through a sanctioned \
         door (Lbcc_util.Tbl, Lbcc_obs.Clock, Lbcc_util.Pool). The \
         diagnostic carries a shortest witness call chain.";
      applies = protocol_path;
    };
    {
      name = "typ-par-race";
      severity = Lint_diag.Error;
      doc =
        "[typed] A closure passed to Pool.parallel_for/parallel_reduce \
         writes captured mutable state (a ref, a mutable record field, \
         an array/bytes cell at a chunk-independent index, an atomic, or \
         a stdlib container): breaks the disjoint-writes contract that \
         makes every pool size bit-identical (pool.mli, DESIGN.md §5b).";
      applies = (fun p -> in_dir "lib" p && p <> "lib/util/pool.ml");
    };
    {
      name = "typ-phase-flow";
      severity = Lint_diag.Error;
      doc =
        "[typed] A broadcast primitive (Engine.run*, Reliable.run, \
         Byzantine.run, Rounds.charge*) is reachable from a public entry \
         point along a call path with no with_phase scope \
         on it, or a resolved with_phase call carries a label outside the \
         documented taxonomy. Interprocedural replacement for the \
         lexical acct-* scope check.";
      applies = accounting_path;
    };
    {
      name = "typ-dead-export";
      severity = Lint_diag.Warning;
      doc =
        "[typed] A value a lib/ interface exports is reached from no \
         executable (bin/, bench/, perfbench/, examples/) and no module \
         initialiser: only tests, or nothing, call it. Delete it with the \
         tests that check only it; a test oracle stays with a waiver \
         naming its test.";
      applies = (fun p -> in_dir "lib" p && not (in_dir "lib/lint" p));
    };
    {
      name = "typ-dead-option";
      severity = Lint_diag.Warning;
      doc =
        "[typed] An optional parameter of a lib/ export that no \
         application reachable from an executable (bin/, bench/, \
         perfbench/, examples/) or a module initialiser supplies: every \
         run takes its default. Make the default a constant; a knob that \
         a named caller or ROADMAP item needs stays with a waiver saying \
         so.";
      applies = (fun p -> in_dir "lib" p && not (in_dir "lib/lint" p));
    };
    {
      name = "typ-stale-cmt";
      severity = Lint_diag.Warning;
      doc =
        "[typed] The source file is newer than the .cmt the typed pass \
         analyzed: findings may describe an old revision. Re-run `dune \
         build` to refresh the artifacts.";
      applies = everywhere;
    };
  ]

let find_rule name = List.find_opt (fun r -> r.name = name) rules

let rule_names = List.map (fun r -> r.name) rules

(* ------------------------------------------------------------------ *)
(* Longident helpers                                                   *)

let rec flat = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flat l @ [ s ]
  | Longident.Lapply _ -> []

let ident_of e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (flat txt)
  | _ -> None

(* Strip a Stdlib. qualification so Stdlib.Random.int matches Random.int. *)
let unqualify = function "Stdlib" :: rest -> rest | l -> l

let last2 l =
  match List.rev l with a :: b :: _ -> Some (b, a) | _ -> None

let rec head_ident e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> head_ident f
  | Pexp_ident { txt; _ } -> Some (flat txt)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Syntactic classifiers                                               *)

let wall_clock_fns =
  [ ("Sys", "time"); ("Unix", "gettimeofday"); ("Unix", "time");
    ("Unix", "gmtime"); ("Unix", "localtime") ]

let is_phase_name l =
  match List.rev l with
  | ("with_phase" | "with_phase_opt" | "with_phases") :: _ -> true
  | _ -> false

(* The primitives that put bits on the shared channel (or record that they
   did): every call must be reachable only through an accounted scope. *)
let is_broadcast_primitive l =
  match last2 (unqualify l) with
  | Some ("Engine", "run") -> true
  | Some ("Reliable", "run") -> true
  | Some ("Rounds", ("charge" | "charge_broadcast" | "charge_vector")) -> true
  | _ -> (
      match List.rev l with
      | ("charge_broadcast" | "charge_vector") :: _ -> true
      | _ -> false)

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-." ]

let float_fns =
  [ "sqrt"; "exp"; "log"; "log10"; "cos"; "sin"; "tan"; "atan"; "atan2";
    "abs_float"; "float_of_int"; "float_of_string" ]

let is_float_type ty =
  match ty.ptyp_desc with
  | Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []) -> true
  | _ -> false

(* Shallow syntactic evidence that an expression is float-valued.  This is
   deliberately conservative: only spellings that cannot be anything but a
   float count, so the rule never fires on integer code. *)
let is_float_like e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } -> (
      match unqualify (flat txt) with
      | [ ("infinity" | "neg_infinity" | "nan" | "epsilon_float" | "max_float"
          | "min_float") ] ->
          true
      | "Float" :: _ :: _ -> true
      | _ -> false)
  | Pexp_constraint (_, ty) -> is_float_type ty
  | Pexp_apply (f, _) -> (
      match ident_of f with
      | Some [ op ] when List.mem op float_ops || List.mem op float_fns -> true
      | Some l -> (
          match unqualify l with "Float" :: _ :: _ -> true | _ -> false)
      | None -> false)
  | _ -> false

let segment_ok s =
  s <> ""
  && String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-')
       s

let rec string_list_literal e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident "[]"; _ }, None) -> Some []
  | Pexp_construct
      ( { txt = Longident.Lident "::"; _ },
        Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ } ) -> (
      match (hd.pexp_desc, string_list_literal tl) with
      | Pexp_constant (Pconst_string (s, loc, _)), Some rest ->
          Some ((s, loc) :: rest)
      | _ -> None)
  | _ -> None

(* Does this pattern bind an accountant?  By convention the accountant is
   always called [acc] or [accountant] in this codebase (enforced de facto
   by this very rule: a helper that charges must take the accountant under
   one of those names to be recognised as an accounted scope). *)
let rec pat_binds_acc p =
  match p.ppat_desc with
  | Ppat_var { txt = "acc" | "accountant"; _ } -> true
  | Ppat_alias (_, { txt = "acc" | "accountant"; _ }) -> true
  | Ppat_alias (p, _) -> pat_binds_acc p
  | Ppat_tuple ps -> List.exists pat_binds_acc ps
  | Ppat_construct (_, Some (_, p)) -> pat_binds_acc p
  | Ppat_variant (_, Some p) -> pat_binds_acc p
  | Ppat_record (fields, _) -> List.exists (fun (_, p) -> pat_binds_acc p) fields
  | Ppat_or (a, b) -> pat_binds_acc a || pat_binds_acc b
  | Ppat_constraint (p, _) | Ppat_open (_, p) | Ppat_lazy p -> pat_binds_acc p
  | _ -> false

let arg_is_accountant (lbl, e) =
  match lbl with
  | Asttypes.Labelled ("accountant" | "acc")
  | Asttypes.Optional ("accountant" | "acc") ->
      true
  | Asttypes.Labelled _ | Asttypes.Optional _ -> false
  | Asttypes.Nolabel -> (
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident ("acc" | "accountant"); _ } -> true
      | Pexp_field (_, { txt; _ }) -> (
          match List.rev (flat txt) with
          | ("acc" | "accountant") :: _ -> true
          | _ -> false)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)

type ctx = {
  path : string;
  suppress : Lint_suppress.t;
  mutable phase_depth : int; (* enclosing with_phase* applications *)
  mutable acct_depth : int; (* enclosing bindings of acc/accountant *)
  mutable out : Lint_diag.t list;
  active : (string * rule) list;
}

let report ctx name loc message =
  match List.assoc_opt name ctx.active with
  | None -> ()
  | Some rule ->
      let pos = loc.Location.loc_start in
      let line = pos.Lexing.pos_lnum in
      if not (Lint_suppress.active ctx.suppress ~rule:name ~line) then
        ctx.out <-
          {
            Lint_diag.rule = name;
            severity = rule.severity;
            file = ctx.path;
            line;
            col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
            message;
          }
          :: ctx.out

let check_phase_segment ctx loc s =
  if not (segment_ok s) then
    report ctx "acct-phase-taxonomy" loc
      (Printf.sprintf
         "phase label %S is not kebab-case ([a-z0-9-], '/'-separated)" s)
  else if not (List.mem s phase_vocabulary) then
    report ctx "acct-phase-taxonomy" loc
      (Printf.sprintf
         "phase label %S is not in the documented taxonomy (%s); extend \
          DESIGN.md §8 or pick an existing phase"
         s
         (String.concat "|" phase_vocabulary))

let check_charge_label ctx loc s =
  let segs = String.split_on_char '/' s in
  if not (List.for_all segment_ok segs) then
    report ctx "acct-phase-taxonomy" loc
      (Printf.sprintf
         "charge label %S is not kebab-case ([a-z0-9-], '/'-separated)" s)
  else
    let rec prefixes = function
      | [] | [ _ ] -> () (* the leaf segment is free-form *)
      | seg :: rest ->
          if not (List.mem seg phase_vocabulary) then
            report ctx "acct-phase-taxonomy" loc
              (Printf.sprintf
                 "charge label %S: prefix segment %S is not a documented \
                  phase (%s)"
                 s seg
                 (String.concat "|" phase_vocabulary));
          prefixes rest
    in
    prefixes segs

(* Module-path checks fire at every identifier occurrence, so a primitive
   passed as a value is caught the same as a direct call. *)
let check_ident ctx loc l =
  let u = unqualify l in
  (match u with
  | "Random" :: _ :: _ ->
      report ctx "det-unseeded-random" loc
        (Printf.sprintf
           "%s: ambient Stdlib Random; draw from the seeded Lbcc_util.Prng \
            instead"
           (String.concat "." l))
  | _ -> ());
  (match last2 u with
  | Some ("Hashtbl", (("iter" | "fold") as fn)) ->
      report ctx "det-unordered-hashtbl" loc
        (Printf.sprintf
           "Hashtbl.%s enumerates in hash-bucket order; use \
            Lbcc_util.Tbl.sorted_bindings/iter_sorted or waive \
            with an order-insensitivity argument"
           fn)
  | Some (m, fn) when List.mem (m, fn) wall_clock_fns ->
      report ctx "det-wall-clock" loc
        (Printf.sprintf
           "%s.%s reads the wall clock; protocol code must be \
            timing-independent (lib/obs owns the clock)"
           m fn)
  | Some ("Domain", "spawn") ->
      report ctx "det-raw-domain" loc
        "raw Domain.spawn bypasses the deterministic worker pool \
         (Lbcc_util.Pool)"
  | Some ("Obj", "magic") ->
      report ctx "hyg-obj-magic" loc "Obj.magic defeats the type system"
  | _ -> ());
  match u with
  | [ "compare" ] ->
      report ctx "det-float-poly-compare" loc
        "polymorphic compare; use Int.compare/Float.compare/String.compare \
         or an explicit comparator for the element type"
  | _ -> ()

let check_apply ctx loc fn args =
  let fn_ident = Option.map unqualify (ident_of fn) in
  (* =/<> with a syntactically float operand. *)
  (match fn_ident with
  | Some [ ("=" | "<>" | "==" | "!=") ] ->
      let operands =
        List.filter_map
          (function Asttypes.Nolabel, e -> Some e | _ -> None)
          args
      in
      if List.exists is_float_like operands then
        report ctx "det-float-poly-compare" loc
          "polymorphic equality on a float-valued operand; use Float.equal \
           (or compare against an explicit tolerance)"
  | _ -> ());
  (* ignore of a call without a type annotation. *)
  (match (fn_ident, args) with
  | Some [ "ignore" ], [ (Asttypes.Nolabel, arg) ] -> (
      match arg.pexp_desc with
      | Pexp_apply _ ->
          report ctx "hyg-ignored-result" loc
            "ignore of a function call without a type annotation; write \
             ignore (f x : t) so the discarded result is visible"
      | _ -> ())
  | _ -> ());
  (* Accounting: broadcast primitives and label taxonomy. *)
  match fn_ident with
  | Some l when is_broadcast_primitive l ->
      let accounted =
        ctx.phase_depth > 0 || ctx.acct_depth > 0
        || List.exists arg_is_accountant args
      in
      if not accounted then
        report ctx "acct-unscoped-broadcast" loc
          (Printf.sprintf
             "%s outside any accountant scope: wrap in Rounds.with_phase, \
              take/pass an ~accountant, or waive with a justification"
             (String.concat "." l));
      List.iter
        (fun (lbl, e) ->
          match (lbl, e.pexp_desc) with
          | Asttypes.Labelled "label", Pexp_constant (Pconst_string (s, sloc, _))
            ->
              check_charge_label ctx sloc s
          | _ -> ())
        args
  | Some l when is_phase_name l ->
      (* First anonymous string literal is the phase label. *)
      let rec first_label = function
        | [] -> ()
        | (Asttypes.Nolabel, { pexp_desc = Pexp_constant (Pconst_string (s, sloc, _)); _ })
          :: _ ->
            check_phase_segment ctx sloc s
        | (Asttypes.Nolabel, e) :: rest -> (
            match string_list_literal e with
            | Some labels ->
                List.iter (fun (s, sloc) -> check_phase_segment ctx sloc s) labels
            | None -> first_label rest)
        | _ :: rest -> first_label rest
      in
      first_label args
  | _ ->
      (* ~phases:[...] at any call site routes into with_phases. *)
      List.iter
        (fun (lbl, e) ->
          match lbl with
          | Asttypes.Labelled "phases" | Asttypes.Optional "phases" -> (
              match string_list_literal e with
              | Some labels ->
                  List.iter
                    (fun (s, sloc) -> check_phase_segment ctx sloc s)
                    labels
              | None -> ())
          | _ -> ())
        args

let make_iterator ctx =
  let open Ast_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> check_ident ctx e.pexp_loc (flat txt)
    | _ -> ());
    match e.pexp_desc with
    | Pexp_assert
        { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
      ->
        report ctx "hyg-assert-false" e.pexp_loc
          "assert false in shipped code; raise a descriptive exception or \
           restructure the match"
    | Pexp_apply (fn, args) ->
        check_apply ctx e.pexp_loc fn args;
        let opens_phase =
          (match ident_of fn with
          | Some l -> (
              match unqualify l with
              | [ "@@" ] -> (
                  match args with
                  | (_, lhs) :: _ -> (
                      match head_ident lhs with
                      | Some hl -> is_phase_name hl
                      | None -> false)
                  | [] -> false)
              | l -> is_phase_name l)
          | None -> false)
        in
        if opens_phase then begin
          ctx.phase_depth <- ctx.phase_depth + 1;
          default_iterator.expr it e;
          ctx.phase_depth <- ctx.phase_depth - 1
        end
        else default_iterator.expr it e
    | Pexp_fun (lbl, _, pat, _) ->
        let binds =
          (match lbl with
          | Asttypes.Labelled ("accountant" | "acc")
          | Asttypes.Optional ("accountant" | "acc") ->
              true
          | _ -> false)
          || pat_binds_acc pat
        in
        if binds then begin
          ctx.acct_depth <- ctx.acct_depth + 1;
          default_iterator.expr it e;
          ctx.acct_depth <- ctx.acct_depth - 1
        end
        else default_iterator.expr it e
    | Pexp_let (_, vbs, _) ->
        if List.exists (fun vb -> pat_binds_acc vb.pvb_pat) vbs then begin
          ctx.acct_depth <- ctx.acct_depth + 1;
          default_iterator.expr it e;
          ctx.acct_depth <- ctx.acct_depth - 1
        end
        else default_iterator.expr it e
    | _ -> default_iterator.expr it e
  in
  let case it c =
    if pat_binds_acc c.pc_lhs then begin
      ctx.acct_depth <- ctx.acct_depth + 1;
      default_iterator.case it c;
      ctx.acct_depth <- ctx.acct_depth - 1
    end
    else default_iterator.case it c
  in
  { default_iterator with expr; case }

(* Top-level [let f ?accountant ... =] is a value binding whose expression
   is a Pexp_fun chain, so parameter scoping is handled by [expr]; here we
   only validate the suppression directives themselves. *)
let check_directives ctx =
  List.iter
    (fun line ->
      report ctx "lint-directive"
        Location.
          {
            loc_start = { Lexing.dummy_pos with pos_lnum = line; pos_bol = 0; pos_cnum = 0 };
            loc_end = { Lexing.dummy_pos with pos_lnum = line; pos_bol = 0; pos_cnum = 0 };
            loc_ghost = false;
          }
        "malformed suppression directive (expected the marker followed by \
         'allow <rule> ...' or 'allow-file <rule> ...')")
    (Lint_suppress.malformed_lines ctx.suppress);
  List.iter
    (fun (line, rule) ->
      if not (List.mem rule rule_names) then
        report ctx "lint-directive"
          Location.
            {
              loc_start = { Lexing.dummy_pos with pos_lnum = line; pos_bol = 0; pos_cnum = 0 };
              loc_end = { Lexing.dummy_pos with pos_lnum = line; pos_bol = 0; pos_cnum = 0 };
              loc_ghost = false;
            }
          (Printf.sprintf "waiver names unknown rule %S (see --list-rules)"
             rule))
    (Lint_suppress.mentioned_rules ctx.suppress)

let check ~path ~suppress structure =
  let active =
    List.filter_map
      (fun r -> if r.applies path then Some (r.name, r) else None)
      rules
  in
  let ctx = { path; suppress; phase_depth = 0; acct_depth = 0; out = []; active } in
  check_directives ctx;
  let it = make_iterator ctx in
  it.Ast_iterator.structure it structure;
  List.sort Lint_diag.compare_diag ctx.out
