(** A dependency-free HTTP/1.1 codec for [pchls serve] and its clients.

    Just enough of RFC 9112 for a JSON API daemon: request and status
    lines, headers, [Content-Length]-framed bodies and sequential
    keep-alive on one connection. No chunked transfer encoding, no
    pipelining, no TLS. Requests and responses share one parser, which is
    total — malformed input yields [Error], never an exception —
    and incremental: it pulls bytes through a caller-supplied chunk
    function, so it parses identically whatever byte boundaries the
    transport delivers (qcheck-verified over arbitrary split points).

    Limits guard the daemon: header sections over [max_header_bytes]
    (default 16 KiB) and declared bodies over [max_body_bytes] (default
    1 MiB) are rejected before buffering them. *)

type request = {
  meth : string;  (** e.g. ["GET"], ["POST"] — verbatim from the wire *)
  target : string;  (** the raw request target, e.g. ["/synth?x=1"] *)
  path : string;  (** target up to the first [?], percent-decoded *)
  query : (string * string) list;  (** decoded key/value pairs, in order *)
  version : string;  (** ["HTTP/1.0"] or ["HTTP/1.1"] *)
  headers : (string * string) list;
      (** names lowercased, values trimmed, in wire order *)
  body : string;
}

(** [header headers name] is the first header named [name]
    (case-insensitive) in a parsed request's or response's headers. *)
val header : (string * string) list -> string -> string option

(** [keep_alive r] — should the connection stay open after this exchange?
    HTTP/1.1 defaults to yes unless [Connection: close]; HTTP/1.0 defaults
    to no unless [Connection: keep-alive]. *)
val keep_alive : request -> bool

type error =
  | Eof  (** clean end of stream before the first byte of a message *)
  | Bad_request of string  (** syntax/framing violation → 400 *)
  | Payload_too_large of string  (** body over [max_body_bytes] → 413 *)

val error_to_string : error -> string

(** A connection reader: buffered pull source plus the bytes left over
    from the previous message (keep-alive framing). [fill buf pos len]
    (e.g. [Unix.read sock]) must return the number of bytes written, 0
    for end of stream, and may raise — exceptions pass through to the
    caller of [read_request]/[read_response]. *)
type reader

val reader :
  ?max_header_bytes:int ->
  ?max_body_bytes:int ->
  (bytes -> int -> int -> int) ->
  reader

(** [of_string text] is a reader over a fixed byte string (tests). *)
val of_string :
  ?max_header_bytes:int -> ?max_body_bytes:int -> string -> reader

(** [read_request r] parses the next request off the stream. Accepts both
    CRLF and bare-LF line endings. [Error Eof] means the peer closed
    between requests; end of stream mid-request is a [Bad_request]. *)
val read_request : reader -> (request, error) result

type response = {
  status : int;
  headers : (string * string) list;
      (** parsed like a request's, framing headers included *)
  body : string;
}

(** [read_response r] is {!read_request} for a client: a status line
    (code 100–599, any reason phrase), then the same headers, framing,
    limits and contract. No [Content-Length] means an empty body. *)
val read_response : reader -> (response, error) result

(** [response ?content_type ?headers status body] — [content_type]
    defaults to ["application/json"]. [Content-Length] is added by
    {!to_string}. *)
val response :
  ?content_type:string ->
  ?headers:(string * string) list ->
  int ->
  string ->
  response

(** [to_string ~keep_alive resp] renders the full wire form, including
    [Content-Length] and a [Connection] header matching [keep_alive]. *)
val to_string : keep_alive:bool -> response -> string

(** [request_to_string ?headers ~keep_alive ~meth ~target body] renders a
    request the way {!to_string} renders a response. *)
val request_to_string :
  ?headers:(string * string) list ->
  keep_alive:bool ->
  meth:string ->
  target:string ->
  string ->
  string

(** [reason_phrase 422] is ["Unprocessable Content"], etc.; unknown codes
    get ["Status"]. *)
val reason_phrase : int -> string

(** [write_all fd s] writes all of [s]. A peer that has gone away ends
    the write silently; the next read reports it. *)
val write_all : Unix.file_descr -> string -> unit

(** [call ?headers ~port ~meth ~path body] is one exchange with a server
    on the loopback interface: a fresh connection, one request with
    [Connection: close], one {!read_response}. Its reader has no body
    cap: the limits protect a daemon from its clients, and
    [GET /debug/flight] or [GET /trace] bodies can outgrow the server's
    1 MiB request cap.

    @raise Unix.Unix_error when the connection fails.
    @raise Failure when the response does not parse. *)
val call :
  ?headers:(string * string) list ->
  port:int ->
  meth:string ->
  path:string ->
  string ->
  response
