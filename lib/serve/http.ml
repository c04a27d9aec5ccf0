type request = {
  meth : string;
  target : string;
  path : string;
  query : (string * string) list;
  version : string;
  headers : (string * string) list;
  body : string;
}

let header headers name = List.assoc_opt (String.lowercase_ascii name) headers

let keep_alive r =
  match Option.map String.lowercase_ascii (header r.headers "connection") with
  | Some "close" -> false
  | Some "keep-alive" -> true
  | Some _ | None -> String.equal r.version "HTTP/1.1"

type error =
  | Eof
  | Bad_request of string
  | Payload_too_large of string

let error_to_string = function
  | Eof -> "end of stream"
  | Bad_request msg -> "bad request: " ^ msg
  | Payload_too_large msg -> "payload too large: " ^ msg

type reader = {
  fill : bytes -> int -> int -> int;
  chunk : bytes;
  mutable pending : string;  (** received but not yet consumed *)
  mutable closed : bool;  (** [fill] returned 0 *)
  max_header_bytes : int;
  max_body_bytes : int;
}

let reader ?(max_header_bytes = 16 * 1024) ?(max_body_bytes = 1024 * 1024)
    fill =
  {
    fill;
    chunk = Bytes.create 8192;
    pending = "";
    closed = false;
    max_header_bytes;
    max_body_bytes;
  }

let of_string ?max_header_bytes ?max_body_bytes text =
  let consumed = ref 0 in
  reader ?max_header_bytes ?max_body_bytes (fun buf pos len ->
      let n = min len (String.length text - !consumed) in
      Bytes.blit_string text !consumed buf pos n;
      consumed := !consumed + n;
      n)

(* Pull one more chunk into [pending]; false once the stream has ended. *)
let refill r =
  if r.closed then false
  else
    let n = r.fill r.chunk 0 (Bytes.length r.chunk) in
    if n = 0 then begin
      r.closed <- true;
      false
    end
    else begin
      r.pending <- r.pending ^ Bytes.sub_string r.chunk 0 n;
      true
    end

exception Parse_error of error

let bad fmt = Printf.ksprintf (fun m -> raise (Parse_error (Bad_request m))) fmt

(* Next LF-terminated line, trailing CR stripped (so both CRLF and bare-LF
   framing parse); [header_budget] caps the bytes buffered while hunting
   for the newline. *)
let read_line r ~header_budget =
  let rec go () =
    match String.index_opt r.pending '\n' with
    | Some i ->
      let line = String.sub r.pending 0 i in
      r.pending <-
        String.sub r.pending (i + 1) (String.length r.pending - i - 1);
      let line =
        if line <> "" && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      Some line
    | None ->
      if String.length r.pending > header_budget then
        bad "header section exceeds %d bytes" r.max_header_bytes;
      if refill r then go () else None
  in
  go ()

(* Best-effort percent decoding: malformed escapes pass through verbatim
   rather than failing the request — the route table never depends on
   them. *)
let percent_decode ?(plus_as_space = false) s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '%' when i + 2 < n -> (
        match (hex s.[i + 1], hex s.[i + 2]) with
        | Some hi, Some lo ->
          Buffer.add_char b (Char.chr ((hi * 16) + lo));
          go (i + 3)
        | _ ->
          Buffer.add_char b '%';
          go (i + 1))
      | '+' when plus_as_space ->
        Buffer.add_char b ' ';
        go (i + 1)
      | c ->
        Buffer.add_char b c;
        go (i + 1)
  in
  go 0;
  Buffer.contents b

let parse_target target =
  if target = "" || target.[0] <> '/' then
    bad "request target must start with '/', got %S" target;
  match String.index_opt target '?' with
  | None -> (percent_decode target, [])
  | Some q ->
    let path = String.sub target 0 q in
    let rest = String.sub target (q + 1) (String.length target - q - 1) in
    let query =
      String.split_on_char '&' rest
      |> List.filter (fun kv -> kv <> "")
      |> List.map (fun kv ->
             match String.index_opt kv '=' with
             | None -> (percent_decode ~plus_as_space:true kv, "")
             | Some e ->
               ( percent_decode ~plus_as_space:true (String.sub kv 0 e),
                 percent_decode ~plus_as_space:true
                   (String.sub kv (e + 1) (String.length kv - e - 1)) ))
    in
    (percent_decode path, query)

let is_method_char = function 'A' .. 'Z' -> true | _ -> false
let is_digit = function '0' .. '9' -> true | _ -> false

(* Header field names are RFC 9110 tokens; the subset check below rejects
   whitespace, control characters and separators, which is what matters
   for never confusing a folded or garbled line with a field. *)
let is_token_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | '!' | '#' | '$' | '%' | '&' | '\'' | '*' | '+' | '-' | '.' | '^' | '_'
  | '`' | '|' | '~' ->
    true
  | _ -> false

let check_version version =
  if not (String.equal version "HTTP/1.1" || String.equal version "HTTP/1.0")
  then bad "unsupported version %S" version

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ] ->
    if meth = "" || not (String.for_all is_method_char meth) then
      bad "malformed method %S" meth;
    check_version version;
    let path, query = parse_target target in
    (meth, target, path, query, version)
  | _ -> bad "malformed request line %S" line

(* status-line = HTTP-version SP 3DIGIT SP [reason-phrase]; the reason
   phrase is free text and ignored. *)
let parse_status_line line =
  match String.split_on_char ' ' line with
  | version :: code :: _ ->
    check_version version;
    if
      String.length code <> 3
      || (not (String.for_all is_digit code))
      || code < "100" || code > "599"
    then bad "malformed status code %S" code;
    int_of_string code
  | _ -> bad "malformed status line %S" line

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> bad "malformed header line %S" line
  | Some 0 -> bad "empty header name in %S" line
  | Some c ->
    let name = String.sub line 0 c in
    if not (String.for_all is_token_char name) then
      bad "malformed header name %S" name;
    let value = String.trim (String.sub line (c + 1) (String.length line - c - 1)) in
    (String.lowercase_ascii name, value)

let content_length r headers =
  if List.mem_assoc "transfer-encoding" headers then
    bad "transfer-encoding is not supported (use content-length)";
  match List.filter (fun (k, _) -> k = "content-length") headers with
  | [] -> 0
  | (_, v) :: rest ->
    if List.exists (fun (_, v') -> v' <> v) rest then
      bad "conflicting content-length headers";
    if v = "" || not (String.for_all is_digit v) then
      bad "malformed content-length %S" v;
    let len =
      match int_of_string_opt v with
      | Some n -> n
      | None ->
        (* All digits but unrepresentable: necessarily over any sane cap. *)
        raise
          (Parse_error
             (Payload_too_large
                (Printf.sprintf "content-length %s exceeds the %d byte limit"
                   v r.max_body_bytes)))
    in
    if len > r.max_body_bytes then
      raise
        (Parse_error
           (Payload_too_large
              (Printf.sprintf "content-length %d exceeds the %d byte limit"
                 len r.max_body_bytes)));
    len

(* Once [pending] runs short, the body is read straight into its own
   buffer and never past its end, so a multi-megabyte body (a client
   reading /debug/flight) costs linear copying, not a copy per chunk. *)
let read_body r len =
  let have = String.length r.pending in
  if have >= len then begin
    let body = String.sub r.pending 0 len in
    r.pending <- String.sub r.pending len (have - len);
    body
  end
  else begin
    let body = Buffer.create (have + Bytes.length r.chunk) in
    Buffer.add_string body r.pending;
    r.pending <- "";
    while Buffer.length body < len do
      let want = min (len - Buffer.length body) (Bytes.length r.chunk) in
      let n = if r.closed then 0 else r.fill r.chunk 0 want in
      if n = 0 then begin
        r.closed <- true;
        bad "stream ended %d bytes into a %d byte body" (Buffer.length body) len
      end;
      Buffer.add_subbytes body r.chunk 0 n
    done;
    Buffer.contents body
  end

(* What requests and responses share: a start line ([what], parsed by
   [parse_start]), the header section and a Content-Length-framed body. *)
let read_message r ~what parse_start =
  try
    (* Tolerate blank line(s) between pipelined messages (RFC 9112 §2.2)
       but bound them by the header budget so a stream of newlines cannot
       spin forever. *)
    let rec first_line skipped =
      if skipped > r.max_header_bytes then
        bad "header section exceeds %d bytes" r.max_header_bytes;
      match read_line r ~header_budget:r.max_header_bytes with
      | None ->
        if r.pending = "" then raise (Parse_error Eof)
        else bad "stream ended inside the %s" what
      | Some "" -> first_line (skipped + 2)
      | Some line -> line
    in
    let line = first_line 0 in
    let start = parse_start line in
    let rec headers acc consumed =
      if consumed > r.max_header_bytes then
        bad "header section exceeds %d bytes" r.max_header_bytes
      else
        match read_line r ~header_budget:(r.max_header_bytes - consumed) with
        | None -> bad "stream ended inside the header section"
        | Some "" -> List.rev acc
        | Some line when line.[0] = ' ' || line.[0] = '\t' ->
          bad "obsolete header folding is not supported"
        | Some line ->
          headers (parse_header_line line :: acc)
            (consumed + String.length line + 2)
    in
    let headers = headers [] (String.length line) in
    let body = read_body r (content_length r headers) in
    Ok (start, headers, body)
  with Parse_error e -> Error e

let read_request r =
  Result.map
    (fun ((meth, target, path, query, version), headers, body) ->
      { meth; target; path; query; version; headers; body })
    (read_message r ~what:"request line" parse_request_line)

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

let read_response r =
  Result.map
    (fun (status, headers, body) -> { status; headers; body })
    (read_message r ~what:"status line" parse_status_line)

let reason_phrase = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 204 -> "No Content"
  | 206 -> "Partial Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 422 -> "Unprocessable Content"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let response ?(content_type = "application/json") ?(headers = []) status body
    =
  { status; headers = ("content-type", content_type) :: headers; body }

(* Start line, headers, then the framing every message carries. *)
let render ~keep_alive start headers body =
  let b = Buffer.create (String.length body + 256) in
  Buffer.add_string b start;
  Buffer.add_string b "\r\n";
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string b
    (Printf.sprintf "content-length: %d\r\n" (String.length body));
  Buffer.add_string b
    (if keep_alive then "connection: keep-alive\r\n"
     else "connection: close\r\n");
  Buffer.add_string b "\r\n";
  Buffer.add_string b body;
  Buffer.contents b

let to_string ~keep_alive resp =
  render ~keep_alive
    (Printf.sprintf "HTTP/1.1 %d %s" resp.status (reason_phrase resp.status))
    resp.headers resp.body

let request_to_string ?(headers = []) ~keep_alive ~meth ~target body =
  render ~keep_alive (Printf.sprintf "%s %s HTTP/1.1" meth target) headers body

(* --- client ------------------------------------------------------------- *)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        go off
  in
  try go 0 with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ()

let call ?(headers = []) ~port ~meth ~path body =
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close sock) @@ fun () ->
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  write_all sock
    (request_to_string
       ~headers:(("host", "127.0.0.1") :: headers)
       ~keep_alive:false ~meth ~target:path body);
  match read_response (reader ~max_body_bytes:max_int (Unix.read sock)) with
  | Ok resp -> resp
  | Error e -> failwith (meth ^ " " ^ path ^ ": " ^ error_to_string e)
