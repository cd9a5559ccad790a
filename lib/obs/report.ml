type direction = Le | Ge

type claim = {
  name : string;
  measured : float;
  claimed_bound : float;
  direction : direction;
}

type phase = { label : string; rounds : int; bits : int }

type t = {
  experiment : string;
  title : string;
  claims : claim list;
  phases : phase list;
  extra : (string * Json.t) list;
}

let schema_tag = "lbcc-bench/1"

let claim ?(direction = Le) ~name ~measured ~bound () =
  { name; measured; claimed_bound = bound; direction }

let within c =
  let slack = 1e-9 *. Float.max 1.0 (Float.abs c.claimed_bound) in
  match c.direction with
  | Le -> c.measured <= c.claimed_bound +. slack
  | Ge -> c.measured >= c.claimed_bound -. slack

let all_within t = List.for_all within t.claims

let direction_string = function Le -> "<=" | Ge -> ">="

let claim_to_json c =
  Json.Obj
    [
      ("name", Json.String c.name);
      ("measured", Json.Float c.measured);
      ("claimed_bound", Json.Float c.claimed_bound);
      ("direction", Json.String (direction_string c.direction));
      ("within_bound", Json.Bool (within c));
    ]

let phase_to_json p =
  Json.Obj
    [
      ("label", Json.String p.label);
      ("rounds", Json.Int p.rounds);
      ("bits", Json.Int p.bits);
    ]

let to_json t =
  Json.Obj
    ([
       ("schema", Json.String schema_tag);
       ("experiment", Json.String t.experiment);
       ("title", Json.String t.title);
       ("within_bound", Json.Bool (all_within t));
       ("claims", Json.Arr (List.map claim_to_json t.claims));
       ("phases", Json.Arr (List.map phase_to_json t.phases));
     ]
    @ t.extra)

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

let ( let* ) = Result.bind

let field obj key =
  match Json.member key obj with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing key %S" key)

let as_string key = function
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "%S must be a string" key)

let as_bool key = function
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "%S must be a boolean" key)

let as_number key j =
  match Json.to_float j with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%S must be a number" key)

let as_int key = function
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "%S must be an integer" key)

let as_arr key = function
  | Json.Arr items -> Ok items
  | _ -> Error (Printf.sprintf "%S must be an array" key)

let validate_claim i j =
  let ctx msg = Printf.sprintf "claims[%d]: %s" i msg in
  Result.map_error ctx
    (let* name = field j "name" in
     let* _ = as_string "name" name in
     let* measured = field j "measured" in
     let* measured = as_number "measured" measured in
     let* bound = field j "claimed_bound" in
     let* bound = as_number "claimed_bound" bound in
     let* dir = field j "direction" in
     let* dir = as_string "direction" dir in
     let* direction =
       match dir with
       | "<=" -> Ok Le
       | ">=" -> Ok Ge
       | s -> Error (Printf.sprintf "bad direction %S" s)
     in
     let* wb = field j "within_bound" in
     let* wb = as_bool "within_bound" wb in
     let c = { name = ""; measured; claimed_bound = bound; direction } in
     if within c <> wb then Error "within_bound inconsistent with the numbers"
     else Ok wb)

let validate_phase i j =
  let ctx msg = Printf.sprintf "phases[%d]: %s" i msg in
  Result.map_error ctx
    (let* label = field j "label" in
     let* _ = as_string "label" label in
     let* rounds = field j "rounds" in
     let* rounds = as_int "rounds" rounds in
     let* bits = field j "bits" in
     let* bits = as_int "bits" bits in
     if rounds < 0 || bits < 0 then Error "negative counters" else Ok ())

let rec validate_all f i = function
  | [] -> Ok []
  | x :: rest ->
      let* v = f i x in
      let* vs = validate_all f (i + 1) rest in
      Ok (v :: vs)

let validate json =
  let* schema = field json "schema" in
  let* schema = as_string "schema" schema in
  let* () =
    if schema = schema_tag then Ok ()
    else Error (Printf.sprintf "unknown schema %S (want %S)" schema schema_tag)
  in
  let* exp = field json "experiment" in
  let* _ = as_string "experiment" exp in
  let* title = field json "title" in
  let* _ = as_string "title" title in
  let* wb = field json "within_bound" in
  let* wb = as_bool "within_bound" wb in
  let* claims = field json "claims" in
  let* claims = as_arr "claims" claims in
  let* claim_flags = validate_all validate_claim 0 claims in
  let* phases = field json "phases" in
  let* phases = as_arr "phases" phases in
  let* _ = validate_all validate_phase 0 phases in
  if List.for_all Fun.id claim_flags <> wb then
    Error "top-level within_bound inconsistent with the claims"
  else Ok ()

let filename t = Printf.sprintf "BENCH_%s.json" t.experiment

(* [mkdir -p]: a report directory that does not exist yet must not throw
   away a finished run. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write ~dir t =
  mkdir_p dir;
  let path = Filename.concat dir (filename t) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~pretty:true (to_json t));
      output_char oc '\n');
  path
