type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Shortest representation that still round-trips a double, always spelled
   as a float token (so Int/Float survive a round-trip). *)
let float_token f =
  if not (Float.is_finite f) then
    invalid_arg "Json.to_string: non-finite float has no JSON encoding";
  let short = Printf.sprintf "%.12g" f in
  let s = if float_of_string short = f then short else Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"

let to_string ?(pretty = false) json =
  let buf = Buffer.create 256 in
  let pad depth = if pretty then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let newline () = if pretty then Buffer.add_char buf '\n' in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_token f)
    | String s -> escape_string buf s
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items ->
        Buffer.add_char buf '[';
        newline ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              newline ()
            end;
            pad (depth + 1);
            emit (depth + 1) item)
          items;
        newline ();
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        newline ();
        List.iteri
          (fun i (key, value) ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              newline ()
            end;
            pad (depth + 1);
            escape_string buf key;
            Buffer.add_string buf (if pretty then ": " else ":");
            emit (depth + 1) value)
          fields;
        newline ();
        pad depth;
        Buffer.add_char buf '}'
  in
  emit 0 json;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

type parser_state = { src : string; mutable pos : int }

let fail st fmt =
  Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "at %d: %s" st.pos m))) fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        true
    | _ -> false
  do
    ()
  done

let expect st c =
  match peek st with
  | Some got when got = c -> advance st
  | Some got -> fail st "expected '%c', found '%c'" c got
  | None -> fail st "expected '%c', found end of input" c

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st "invalid literal"

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "invalid hex digit '%c'" c

let hex4 st =
  if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    v := (!v * 16) + hex_digit st st.src.[st.pos + i]
  done;
  st.pos <- st.pos + 4;
  !v

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
        advance st;
        (match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                let cp = hex4 st in
                let cp =
                  (* High surrogate: consume the paired low surrogate. *)
                  if cp >= 0xD800 && cp <= 0xDBFF then begin
                    if
                      st.pos + 1 < String.length st.src
                      && st.src.[st.pos] = '\\'
                      && st.src.[st.pos + 1] = 'u'
                    then begin
                      st.pos <- st.pos + 2;
                      let lo = hex4 st in
                      if lo < 0xDC00 || lo > 0xDFFF then
                        fail st "unpaired surrogate"
                      else 0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                    end
                    else fail st "unpaired surrogate"
                  end
                  else cp
                in
                add_utf8 buf cp
            | c -> fail st "invalid escape '\\%c'" c));
        loop ()
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Some ('0' .. '9' | '-' | '+') -> advance st
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance st
    | _ -> continue_ := false
  done;
  let token = String.sub st.src start (st.pos - start) in
  if token = "" then fail st "expected a value";
  if !is_float then
    match float_of_string_opt token with
    | Some f -> Float f
    | None -> fail st "malformed number %S" token
  else
    match int_of_string_opt token with
    | Some i -> Int i
    | None -> (
        (* Integer token too wide for a native int: keep the value. *)
        match float_of_string_opt token with
        | Some f -> Float f
        | None -> fail st "malformed number %S" token)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> String (parse_string st)
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec fields_loop () =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let value = parse_value st in
          fields := (key, value) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields_loop ()
          | Some '}' -> advance st
          | _ -> fail st "expected ',' or '}'"
        in
        fields_loop ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        Arr []
      end
      else begin
        let items = ref [] in
        let rec items_loop () =
          let value = parse_value st in
          items := value :: !items;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items_loop ()
          | Some ']' -> advance st
          | _ -> fail st "expected ',' or ']'"
        in
        items_loop ();
        Arr (List.rev !items)
      end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
