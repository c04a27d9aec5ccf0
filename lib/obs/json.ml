type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Fail of int * string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %C, got %C" c c')
    | None -> fail (Printf.sprintf "expected %C, got end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let s = String.sub text !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ s) with
    | Some c -> c
    | None -> fail (Printf.sprintf "bad \\u escape %S" s)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'u' ->
          advance ();
          let c = hex4 () in
          (* Keep it simple: encode the scalar as UTF-8; surrogate pairs
             outside the BMP are not reassembled (the tracer never emits
             them). *)
          if c < 0x80 then Buffer.add_char buf (Char.chr c)
          else if c < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
          end;
          pos := !pos - 1 (* the shared advance below *)
        | Some c -> fail (Printf.sprintf "bad escape \\%C" c)
        | None -> fail "unterminated escape");
        advance ();
        go ())
      | Some c when Char.code c < 0x20 ->
        fail "unescaped control character in string"
      | Some _ ->
        (* A run of plain bytes is copied at once. *)
        let start = !pos in
        while
          !pos < n
          &&
          let c = text.[!pos] in
          c <> '"' && c <> '\\' && Char.code c >= 0x20
        do
          advance ()
        done;
        Buffer.add_substring buf text start (!pos - start);
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let digits () =
      let d = ref 0 in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          incr d;
          advance ();
          go ()
        | Some _ | None -> ()
      in
      go ();
      if !d = 0 then fail "expected digit"
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance () (* no leading zeros *)
    | Some '1' .. '9' -> digits ()
    | Some _ | None -> fail "expected digit");
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with
      | Some ('+' | '-') -> advance ()
      | Some _ | None -> ());
      digits ()
    | Some _ | None -> ());
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some ('-' | '0' .. '9') -> Number (parse_number ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | Some c -> fail (Printf.sprintf "expected ',' or ']', got %C" c)
          | None -> fail "unterminated array"
        in
        List (elems [])
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (kv :: acc)
          | Some '}' ->
            advance ();
            List.rev (kv :: acc)
          | Some c -> fail (Printf.sprintf "expected ',' or '}', got %C" c)
          | None -> fail "unterminated object"
        in
        Obj (fields [])
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after JSON value";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) ->
    Error (Printf.sprintf "byte %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Number _ | String _ | List _ -> None

(* Compact writer, the inverse of [parse] for everything the parser can
   produce. Integral values print in full: plain digits below 1e15
   (counters, cycle counts, status codes), written as the int they equal
   (-0. keeps its sign), and %.17g above. Other finite
   values print as the first of %.15g/%.16g/%.17g that reads back as the
   same double, which is also the shortest, so 27.2 is "27.2", not
   "27.199999999999999". Anything non-finite has no JSON spelling and
   becomes [null]. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0. && Float.sign_bit f then "-0" else string_of_int (int_of_float f)
  else if not (Float.is_finite f) then "null"
  else if Float.is_integer f then Printf.sprintf "%.17g" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let write_string buf s =
  Buffer.add_char buf '"';
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
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Number f -> Buffer.add_string buf (number f)
  | String s -> write_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        write_string buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string json =
  let buf = Buffer.create 256 in
  write buf json;
  Buffer.contents buf
