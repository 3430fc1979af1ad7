(* The repository's single JSON codec: emission for every
   machine-readable report (batch, diagnostics, bench, the CLI's --json
   outputs) and a strict parser whose rejection behaviour the consumers
   control — malformed input or a stale schema becomes an error value,
   never a crash. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let rec add_json buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num x -> Buffer.add_string buf (number_to_string x)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          add_json buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          add_json buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  add_json buf j;
  Buffer.contents buf

exception Bad of string

(* Recursive-descent parser.  Depth-bounded so a hostile input of
   100k open brackets cannot blow the caller's stack. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "byte %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %C, found %C" c c')
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with Failure _ -> fail "invalid \\u escape"
            in
            (* Encode the code point as UTF-8 (surrogate pairs of
               astral-plane characters come through as two escapes and
               are stored as their surrogate bytes — adequate for
               these reports, whose strings are ASCII in practice). *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf
                (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
        | c -> fail (Printf.sprintf "invalid escape \\%c" c));
        go ()
      end
      else if Char.code c < 0x20 then fail "control character in string"
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let number_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && number_char s.[!pos] do
      advance ()
    done;
    let span = String.sub s start (!pos - start) in
    match float_of_string_opt span with
    | Some x -> Num x
    | None -> fail (Printf.sprintf "invalid number %S" span)
  in
  let rec parse_value depth =
    if depth > 64 then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec go () =
            items := parse_value (depth + 1) :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                go ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          go ();
          Arr (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec go () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                go ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          go ();
          Obj (List.rev !fields)
        end
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* ---- accessors ---- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_int = function
  | Num x
    when Float.is_integer x
         (* Doubles represent integers exactly only up to 2^53;
            [int_of_float] past that silently returns a neighbouring
            integer (bench allocation counters are int64-scale, so the
            range is reachable).  Out-of-range values are rejected, not
            rounded. *)
         && Float.abs x <= 9007199254740992.0 (* 2^53 *) ->
      Some (int_of_float x)
  | _ -> None

let to_float = function Num x -> Some x | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr items -> Some items | _ -> None

let mem_int k j = Option.bind (member k j) to_int
let mem_float k j = Option.bind (member k j) to_float
let mem_str k j = Option.bind (member k j) to_str
let mem_bool k j = Option.bind (member k j) to_bool
let mem_list k j = Option.bind (member k j) to_list
