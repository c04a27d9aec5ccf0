(* The serve subsystem: HTTP codec totality and chunking-invariance in
   both directions (qcheck over arbitrary split points), single-flight
   request coalescing (N concurrent identical requests -> exactly one
   engine run), and live-socket integration of the daemon: endpoint
   status mapping (200/422/400/206/404/405), keep-alive, and graceful
   shutdown. *)

module Http = Pchls_serve.Http
module Coalesce = Pchls_serve.Coalesce
module Server = Pchls_serve.Server
module Store = Pchls_cache.Store
module Json = Pchls_obs.Json
module Metrics = Pchls_obs.Metrics
module Event = Pchls_obs.Event
module Trace = Pchls_obs.Trace
module Fault = Pchls_resil.Fault

(* --- HTTP codec --------------------------------------------------------- *)

let sample_request =
  "POST /synth?debug=1&x=a%20b HTTP/1.1\r\n\
   Host: localhost\r\n\
   Content-Type: application/json\r\n\
   Content-Length: 28\r\n\
   \r\n\
   {\"benchmark\":\"hal\",\"time\":8}"

let sample_response =
  "HTTP/1.1 206 Partial Content\r\n\
   Content-Type: application/json\r\n\
   X-Pchls-Degraded: preflight\r\n\
   Content-Length: 22\r\n\
   \r\n\
   {\"partial\":\"degraded\"}"

let read_ok rdr =
  match Http.read_response rdr with
  | Ok r -> r
  | Error e -> Alcotest.fail (Http.error_to_string e)

let test_parse_request () =
  match Http.read_request (Http.of_string sample_request) with
  | Error e -> Alcotest.fail (Http.error_to_string e)
  | Ok req ->
    Alcotest.(check string) "method" "POST" req.Http.meth;
    Alcotest.(check string) "path" "/synth" req.Http.path;
    Alcotest.(check string) "target" "/synth?debug=1&x=a%20b" req.Http.target;
    Alcotest.(check (list (pair string string)))
      "query decoded"
      [ ("debug", "1"); ("x", "a b") ]
      req.Http.query;
    Alcotest.(check (option string))
      "header lookup is case-insensitive" (Some "application/json")
      (Http.header req.Http.headers "CONTENT-type");
    Alcotest.(check string)
      "body framed by content-length" "{\"benchmark\":\"hal\",\"time\":8}"
      req.Http.body;
    Alcotest.(check bool) "HTTP/1.1 defaults to keep-alive" true
      (Http.keep_alive req)

let test_bare_lf_accepted () =
  let raw = "GET /healthz HTTP/1.1\nHost: x\n\n" in
  match Http.read_request (Http.of_string raw) with
  | Ok req -> Alcotest.(check string) "path" "/healthz" req.Http.path
  | Error e -> Alcotest.fail (Http.error_to_string e)

let test_keep_alive_matrix () =
  let req ?connection version =
    let hdr =
      match connection with
      | None -> ""
      | Some c -> Printf.sprintf "Connection: %s\r\n" c
    in
    match
      Http.read_request
        (Http.of_string (Printf.sprintf "GET / %s\r\n%s\r\n" version hdr))
    with
    | Ok r -> Http.keep_alive r
    | Error e -> Alcotest.fail (Http.error_to_string e)
  in
  Alcotest.(check bool) "1.1 default" true (req "HTTP/1.1");
  Alcotest.(check bool) "1.1 close" false (req ~connection:"close" "HTTP/1.1");
  Alcotest.(check bool) "1.0 default" false (req "HTTP/1.0");
  Alcotest.(check bool) "1.0 keep-alive" true
    (req ~connection:"keep-alive" "HTTP/1.0")

let test_two_requests_one_stream () =
  let rdr =
    Http.of_string
      "POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
       GET /b HTTP/1.1\r\n\r\n"
  in
  (match Http.read_request rdr with
  | Ok r ->
    Alcotest.(check string) "first path" "/a" r.Http.path;
    Alcotest.(check string) "first body" "hi" r.Http.body
  | Error e -> Alcotest.fail (Http.error_to_string e));
  (match Http.read_request rdr with
  | Ok r -> Alcotest.(check string) "second path" "/b" r.Http.path
  | Error e -> Alcotest.fail (Http.error_to_string e));
  match Http.read_request rdr with
  | Error Http.Eof -> ()
  | Ok _ -> Alcotest.fail "expected Eof after the last request"
  | Error e -> Alcotest.fail (Http.error_to_string e)

let expect_bad raw msg =
  match Http.read_request (Http.of_string raw) with
  | Error (Http.Bad_request _) -> ()
  | Ok _ -> Alcotest.fail (msg ^ ": accepted")
  | Error e -> Alcotest.fail (msg ^ ": " ^ Http.error_to_string e)

let test_malformed_rejected () =
  expect_bad "GET\r\n\r\n" "one-token request line";
  expect_bad "GET / HTTP/1.1 extra\r\n\r\n" "four-token request line";
  expect_bad "GET / HTTP/2.0\r\n\r\n" "unknown version";
  expect_bad "GET nopath HTTP/1.1\r\n\r\n" "target without /";
  expect_bad "g3t / HTTP/1.1\r\n\r\n" "lowercase method";
  expect_bad "GET / HTTP/1.1\r\nno-colon\r\n\r\n" "header without colon";
  expect_bad "GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n" "obs-folding";
  expect_bad "GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
    "non-numeric content-length";
  expect_bad
    "GET / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhi"
    "conflicting content-lengths";
  expect_bad "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    "chunked transfer encoding";
  expect_bad "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"
    "stream ends inside the body";
  expect_bad "GET / HTT" "stream ends inside the request line";
  let expect_bad_response raw msg =
    match Http.read_response (Http.of_string raw) with
    | Error (Http.Bad_request _) -> ()
    | Ok _ -> Alcotest.fail (msg ^ ": accepted")
    | Error e -> Alcotest.fail (msg ^ ": " ^ Http.error_to_string e)
  in
  expect_bad_response "HTTP/1.1\r\n\r\n" "no status code";
  expect_bad_response "HTTP/2 200 OK\r\n\r\n" "unknown response version";
  expect_bad_response "HTTP/1.1 2x0 OK\r\n\r\n" "non-numeric status";
  expect_bad_response "HTTP/1.1 2000 OK\r\n\r\n" "four-digit status";
  expect_bad_response "HTTP/1.1 099 OK\r\n\r\n" "status below 100";
  expect_bad_response "GET / HTTP/1.1\r\n\r\n" "a request is not a response";
  expect_bad_response "HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nab"
    "stream ends inside the response body"

let test_limits () =
  (match
     Http.read_request
       (Http.of_string ~max_body_bytes:4
          "POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
   with
  | Error (Http.Payload_too_large _) -> ()
  | _ -> Alcotest.fail "body over the cap must be 413");
  let huge_header =
    "GET / HTTP/1.1\r\nX: " ^ String.make 20_000 'a' ^ "\r\n\r\n"
  in
  match Http.read_request (Http.of_string ~max_header_bytes:1024 huge_header) with
  | Error (Http.Bad_request _ | Http.Payload_too_large _) -> ()
  | Ok _ -> Alcotest.fail "oversized header section accepted"
  | Error Http.Eof -> Alcotest.fail "oversized header section: Eof"

let test_eof_between_requests () =
  (match Http.read_request (Http.of_string "") with
  | Error Http.Eof -> ()
  | _ -> Alcotest.fail "empty stream must be a clean Eof");
  match Http.read_response (Http.of_string "") with
  | Error Http.Eof -> ()
  | _ -> Alcotest.fail "empty stream must be a clean Eof for a client too"

(* A reader that hands the text over in the exact chunk sizes given —
   the transport boundaries a real socket might produce. *)
let chunked_reader chunks =
  let rem = ref chunks in
  Http.reader (fun buf pos len ->
      match !rem with
      | [] -> 0
      | s :: rest ->
        let n = min len (String.length s) in
        Bytes.blit_string s 0 buf pos n;
        rem :=
          (if n < String.length s then
             String.sub s n (String.length s - n) :: rest
           else rest);
        n)

(* Cut [text] at the (sorted, deduplicated, in-range) positions. *)
let cut_at positions text =
  let len = String.length text in
  let cuts =
    List.sort_uniq compare
      (List.filter (fun p -> p > 0 && p < len) positions)
  in
  let rec go start = function
    | [] -> [ String.sub text start (len - start) ]
    | p :: rest -> String.sub text start (p - start) :: go p rest
  in
  go 0 cuts

let prop_split_invariant =
  QCheck.Test.make ~count:200
    ~name:"parse is invariant under transport chunking"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 12) small_nat)
    (fun positions ->
      let invariant read text =
        let whole = read (Http.of_string text)
        and split = read (chunked_reader (cut_at positions text)) in
        match (whole, split) with
        | Ok a, Ok b -> a = b
        | Error a, Error b -> a = b
        | _ -> false
      in
      invariant Http.read_request sample_request
      && invariant Http.read_response sample_response)

let prop_garbage_never_raises =
  QCheck.Test.make ~count:500 ~name:"malformed bytes never raise"
    QCheck.(string_of Gen.printable)
    (fun garbage ->
      (match Http.read_request (Http.of_string garbage) with
      | Ok _ | Error _ -> true)
      &&
      match Http.read_response (Http.of_string garbage) with
      | Ok _ | Error _ -> true)

let prop_mutated_request_never_raises =
  (* Flip one byte of a valid message to an arbitrary printable char:
     close-to-valid inputs probe different parser paths than pure noise. *)
  QCheck.Test.make ~count:500 ~name:"one-byte mutations never raise"
    QCheck.(pair (int_bound 1023) printable_char)
    (fun (i, c) ->
      let mutate text =
        let b = Bytes.of_string text in
        Bytes.set b (i mod Bytes.length b) c;
        Http.of_string (Bytes.to_string b)
      in
      (match Http.read_request (mutate sample_request) with
      | Ok _ | Error _ -> true)
      &&
      match Http.read_response (mutate sample_response) with
      | Ok _ | Error _ -> true)

let test_response_roundtrip () =
  let r =
    Http.response ~headers:[ ("x-extra", "1") ] 422 "{\"error\":\"e\"}"
  in
  let back = read_ok (Http.of_string (Http.to_string ~keep_alive:true r)) in
  Alcotest.(check int) "status" 422 back.Http.status;
  Alcotest.(check (list (pair string string)))
    "headers, then the framing to_string adds"
    (r.Http.headers @ [ ("content-length", "13"); ("connection", "keep-alive") ])
    back.Http.headers;
  Alcotest.(check string) "body" r.Http.body back.Http.body;
  Alcotest.(check int) "reason phrase is optional" 204
    (read_ok (Http.of_string "HTTP/1.1 204\r\n\r\n")).Http.status

let test_request_writer_roundtrip () =
  let wire =
    Http.request_to_string
      ~headers:[ ("X-Request-Id", "rid-1") ]
      ~keep_alive:false ~meth:"POST" ~target:"/synth?x=1" "{}"
  in
  match Http.read_request (Http.of_string wire) with
  | Error e -> Alcotest.fail (Http.error_to_string e)
  | Ok req ->
    Alcotest.(check (pair string string))
      "request line" ("POST", "/synth") (req.Http.meth, req.Http.path);
    Alcotest.(check (option string))
      "caller header" (Some "rid-1")
      (Http.header req.Http.headers "x-request-id");
    Alcotest.(check string) "body" "{}" req.Http.body;
    Alcotest.(check bool) "connection: close" false (Http.keep_alive req)

(* --- coalescing --------------------------------------------------------- *)

let test_coalesce_single_flight () =
  let t = Coalesce.create () in
  let runs = Atomic.make 0 in
  let gate = Mutex.create () in
  let opened = ref false in
  let gate_cond = Condition.create () in
  let leader_started = Atomic.make false in
  let followers = 7 in
  let arrived = Atomic.make 0 in
  let work () =
    Atomic.set leader_started true;
    Atomic.incr runs;
    Mutex.lock gate;
    while not !opened do
      Condition.wait gate_cond gate
    done;
    Mutex.unlock gate;
    42
  in
  let results = Array.make (followers + 1) None in
  let spawn i =
    Thread.create
      (fun () ->
        Atomic.incr arrived;
        results.(i) <- Some (Coalesce.run t ~key:"k" work))
      ()
  in
  let leader = spawn 0 in
  while not (Atomic.get leader_started) do
    Thread.yield ()
  done;
  let rest = List.init followers (fun i -> spawn (i + 1)) in
  while Atomic.get arrived < followers + 1 do
    Thread.yield ()
  done;
  (* All callers are at (or inside) run; give the stragglers a beat to
     reach the flight table, then release the leader. *)
  Thread.delay 0.05;
  Mutex.lock gate;
  opened := true;
  Condition.broadcast gate_cond;
  Mutex.unlock gate;
  List.iter Thread.join (leader :: rest);
  Alcotest.(check int) "exactly one run" 1 (Atomic.get runs);
  let led = ref 0 and joined = ref 0 in
  Array.iter
    (function
      | Some (Ok 42, Coalesce.Led) -> incr led
      | Some (Ok 42, Coalesce.Joined) -> incr joined
      | Some _ -> Alcotest.fail "wrong coalesced result"
      | None -> Alcotest.fail "caller missing")
    results;
  Alcotest.(check int) "one leader" 1 !led;
  Alcotest.(check int) "everyone else joined" followers !joined;
  Alcotest.(check int) "flight forgotten" 0 (Coalesce.in_flight t)

let test_coalesce_exception_shared () =
  let t = Coalesce.create () in
  match Coalesce.run t ~key:"boom" (fun () -> failwith "engine crashed") with
  | Error (Failure _), Coalesce.Led ->
    (* The flight is forgotten: a retry runs afresh rather than replaying
       the cached crash. *)
    (match Coalesce.run t ~key:"boom" (fun () -> 7) with
    | Ok 7, Coalesce.Led -> ()
    | _ -> Alcotest.fail "retry after a crash must lead a fresh flight")
  | _ -> Alcotest.fail "leader must observe its own exception"

let test_coalesce_sequential_not_shared () =
  let t = Coalesce.create () in
  let runs = ref 0 in
  let go () =
    match Coalesce.run t ~key:"seq" (fun () -> incr runs; !runs) with
    | Ok n, Coalesce.Led -> n
    | _ -> Alcotest.fail "sequential calls must each lead"
  in
  Alcotest.(check int) "first" 1 (go ());
  Alcotest.(check int) "second recomputes" 2 (go ())

(* --- live-socket integration -------------------------------------------- *)

let base_config =
  {
    Server.default_config with
    Server.port = 0;
    threads = 4;
    jobs = 1;
    cache_mem_entries = Some 64;
  }

let with_server ?(config = base_config) f =
  let srv = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

(* One exchange on a fresh connection. *)
let call srv ?headers ~meth ~path body =
  Http.call ?headers ~port:(Server.port srv) ~meth ~path body

let request srv ~meth ~path body =
  let r = call srv ~meth ~path body in
  (r.Http.status, r.Http.body)

(* A raw connection, for what [Http.call] cannot send: several requests on
   one socket, or bytes that are not a request. *)
let with_connection srv f =
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close sock) @@ fun () ->
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  f sock (Http.reader (Unix.read sock))

let json_field name body =
  match Json.parse body with
  | Ok json -> Json.member name json
  | Error msg -> Alcotest.fail ("response is not JSON: " ^ msg)

(* The server's live flight ring, read the way an operator would. *)
let flight_events srv =
  let status, body = request srv ~meth:"GET" ~path:"/debug/flight" "" in
  Alcotest.(check int) "flight 200 by default" 200 status;
  match Event.of_chrome body with
  | Ok evs -> evs
  | Error msg -> Alcotest.fail ("live flight dump invalid: " ^ msg)

let test_healthz () =
  with_server @@ fun srv ->
  let status, body = request srv ~meth:"GET" ~path:"/healthz" "" in
  Alcotest.(check int) "200" 200 status;
  (match json_field "status" body with
  | Some (Json.String "ok") -> ()
  | _ -> Alcotest.fail ("healthz body: " ^ body));
  (match json_field "version" body with
  | Some (Json.String v) ->
    Alcotest.(check string) "version surfaced" Server.version v
  | _ -> Alcotest.fail ("healthz without version: " ^ body));
  (match json_field "uptime_s" body with
  | Some (Json.Number s) ->
    Alcotest.(check bool) "uptime non-negative" true (s >= 0.)
  | _ -> Alcotest.fail ("healthz without uptime_s: " ^ body));
  (match json_field "pool" body with
  | Some pool -> (
    match (Json.member "jobs" pool, Json.member "threads" pool) with
    | Some (Json.Number jobs), Some (Json.Number threads) ->
      Alcotest.(check (pair int int))
        "pool shape" (1, 4)
        (int_of_float jobs, int_of_float threads)
    | _ -> Alcotest.fail ("healthz pool shape: " ^ body))
  | None -> Alcotest.fail ("healthz without pool: " ^ body));
  match json_field "flight" body with
  | Some flight -> (
    match Json.member "retained" flight with
    | Some (Json.Number _) -> ()
    | _ -> Alcotest.fail ("healthz flight shape: " ^ body))
  | None -> Alcotest.fail ("healthz without flight: " ^ body)

let test_synth_statuses () =
  with_server @@ fun srv ->
  let status, body =
    request srv ~meth:"POST" ~path:"/synth"
      "{\"benchmark\":\"hal\",\"time\":8,\"power\":60}"
  in
  Alcotest.(check int) "feasible -> 200" 200 status;
  (match json_field "feasible" body with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail ("synth body: " ^ body));
  let status, body =
    request srv ~meth:"POST" ~path:"/synth"
      "{\"benchmark\":\"hal\",\"time\":4,\"power\":10}"
  in
  Alcotest.(check int) "infeasible -> 422" 422 status;
  (match json_field "error" body with
  | Some (Json.String "infeasible") -> ()
  | _ -> Alcotest.fail ("infeasible body: " ^ body));
  let status, body =
    request srv ~meth:"POST" ~path:"/synth"
      "{\"benchmark\":\"hal\",\"time\":8,\"max_iters\":0}"
  in
  Alcotest.(check int) "expired budget -> 206" 206 status;
  match json_field "partial" body with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.fail ("partial body: " ^ body)

let test_client_errors () =
  with_server @@ fun srv ->
  let check_400 name body =
    let status, _ = request srv ~meth:"POST" ~path:"/synth" body in
    Alcotest.(check int) (name ^ " -> 400") 400 status
  in
  check_400 "unparsable json" "not json at all";
  check_400 "no graph source" "{\"time\":8}";
  check_400 "two graph sources"
    "{\"benchmark\":\"hal\",\"beh\":\"x = a + b\",\"time\":8}";
  check_400 "unknown benchmark" "{\"benchmark\":\"nope\",\"time\":8}";
  check_400 "missing time" "{\"benchmark\":\"hal\"}";
  check_400 "time of wrong type" "{\"benchmark\":\"hal\",\"time\":\"8\"}";
  check_400 "non-positive power"
    "{\"benchmark\":\"hal\",\"time\":8,\"power\":-3}";
  check_400 "bad policy"
    "{\"benchmark\":\"hal\",\"time\":8,\"policy\":\"min-cost\"}";
  check_400 "empty body" "";
  (* The exact area search runs outside every budget: a client may lower
     its cap but not raise it past the default. hal's 21 operations are
     over 13, so the refusal, not the search, is what answers at once. *)
  let preflight fields =
    request srv ~meth:"POST" ~path:"/preflight"
      ("{\"benchmark\":\"hal\",\"time\":17,\"power\":10," ^ fields ^ "}")
  in
  let status, body = preflight "\"exact_max\":13" in
  Alcotest.(check int) "exact_max past the cap -> 400" 400 status;
  (match json_field "reason" body with
  | Some (Json.String reason) ->
    Alcotest.(check string) "reason names the field"
      "\"exact_max\" must be in 0..12" reason
  | _ -> Alcotest.fail ("exact_max 400 body: " ^ body));
  Alcotest.(check int) "negative exact_max -> 400" 400
    (fst (preflight "\"exact_max\":-1"));
  Alcotest.(check int) "exact_max 0 -> 200" 200
    (fst (preflight "\"exact_max\":0"));
  let status, _ = request srv ~meth:"GET" ~path:"/nope" "" in
  Alcotest.(check int) "unknown route -> 404" 404 status;
  let status, _ = request srv ~meth:"GET" ~path:"/synth" "" in
  Alcotest.(check int) "wrong method -> 405" 405 status;
  let status, _ = request srv ~meth:"POST" ~path:"/metrics" "" in
  Alcotest.(check int) "wrong method on GET route -> 405" 405 status

let test_payload_too_large () =
  with_server ~config:{ base_config with Server.max_body_bytes = 64 }
  @@ fun srv ->
  let big =
    Printf.sprintf "{\"benchmark\":\"hal\",\"time\":8,\"pad\":\"%s\"}"
      (String.make 256 'x')
  in
  let status, _ = request srv ~meth:"POST" ~path:"/synth" big in
  Alcotest.(check int) "413" 413 status

let test_metrics_and_trace () =
  with_server @@ fun srv ->
  let status, body = request srv ~meth:"GET" ~path:"/metrics" "" in
  Alcotest.(check int) "metrics 200" 200 status;
  (match Json.parse body with
  | Ok (Json.Obj _) -> ()
  | _ -> Alcotest.fail "metrics must be a JSON object");
  let status, _ = request srv ~meth:"GET" ~path:"/trace" "" in
  Alcotest.(check int) "trace off -> 404" 404 status

let test_sweep_and_pareto () =
  with_server @@ fun srv ->
  let body =
    "{\"benchmark\":\"hal\",\"times\":[6,8],\"p_from\":20,\"p_to\":60,\
     \"p_step\":20}"
  in
  let status, text = request srv ~meth:"POST" ~path:"/pareto" body in
  Alcotest.(check int) "pareto 200" 200 status;
  match (json_field "points" text, json_field "pareto" text) with
  | Some (Json.List points), Some (Json.List _) ->
    Alcotest.(check int) "2x3 grid" 6 (List.length points)
  | _ -> Alcotest.fail ("pareto body: " ^ text)

(* The grid cap is checked before the power range is built: 1e7 points
   are refused as fast as any other bad body. *)
let test_oversized_power_range () =
  with_server @@ fun srv ->
  List.iter
    (fun (range, expected) ->
      let t0 = Unix.gettimeofday () in
      let status, body =
        request srv ~meth:"POST" ~path:"/sweep"
          ("{\"benchmark\":\"hal\",\"time\":8," ^ range ^ "}")
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check int) (range ^ ": 400") 400 status;
      (match json_field "reason" body with
      | Some (Json.String reason) ->
        Alcotest.(check string) (range ^ ": reason") expected reason
      | _ -> Alcotest.fail ("oversized sweep body: " ^ body));
      Alcotest.(check bool)
        (Printf.sprintf "%s: answered in %.2f s, under 1 s" range elapsed)
        true (elapsed < 1.))
    [
      ( "\"p_from\":1,\"p_to\":1e6,\"p_step\":0.1",
        "constraint grid exceeds 10000 points" );
      (* a step below one ulp of the range end never advances *)
      ( "\"p_from\":1,\"p_to\":2,\"p_step\":1e-300",
        "\"p_step\" 1e-300 cannot advance a power range past 2" );
    ]

(* T is capped at [Request.max_time_limit], as on the command line: the
   engine keeps state per cycle of T, so T = 10^8 would exhaust memory.
   Every route that takes a T refuses one past the cap. *)
let test_time_cap () =
  with_server @@ fun srv ->
  List.iter
    (fun (path, fields, expected) ->
      let status, body =
        request srv ~meth:"POST" ~path
          ("{\"benchmark\":\"hal\",\"power\":10," ^ fields ^ "}")
      in
      Alcotest.(check int) (path ^ " " ^ fields ^ ": 400") 400 status;
      match json_field "reason" body with
      | Some (Json.String reason) ->
        Alcotest.(check string) (path ^ ": reason") expected reason
      | _ -> Alcotest.fail ("time cap body: " ^ body))
    [
      ( "/synth", "\"time\":100000000",
        "\"time\" must be <= 1000000, got 100000000" );
      ( "/check", "\"time\":1000001",
        "\"time\" must be <= 1000000, got 1000001" );
      ( "/preflight", "\"time\":100000000",
        "\"time\" must be <= 1000000, got 100000000" );
      ( "/sweep", "\"time\":100000000",
        "\"time\" must be <= 1000000, got 100000000" );
      ( "/pareto", "\"times\":[8,1000001]",
        "\"times\" entries must be integers in 1..1000000" );
    ];
  let status, _ =
    request srv ~meth:"POST" ~path:"/preflight"
      "{\"benchmark\":\"hal\",\"time\":1000000,\"power\":10}"
  in
  Alcotest.(check int) "preflight at the cap: 200" 200 status

(* The graph fingerprint runs on the handler thread before any deadline
   applies, so its cost must stay near-linear in any client graph: a
   10 000-node chain of alike nodes is answered (422, T=1 is below its
   critical path) in tens of milliseconds, not seconds. *)
let test_alike_chain_answered_quickly () =
  with_server @@ fun srv ->
  let body =
    Json.to_string
      (Json.Obj
         [
           ( "dfg",
             Json.String
               (Pchls_dfg.Text_format.to_string
                  (Test_helpers.alike_chain 10_000)) );
           ("time", Json.Number 1.);
         ])
  in
  let t0 = Unix.gettimeofday () in
  let status, _ = request srv ~meth:"POST" ~path:"/synth" body in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "422" 422 status;
  Alcotest.(check bool)
    (Printf.sprintf "answered in %.2f s, under 3 s" elapsed)
    true (elapsed < 3.)

let test_keep_alive_connection () =
  with_server @@ fun srv ->
  with_connection srv @@ fun sock rdr ->
  let exchange () =
    Http.write_all sock
      (Http.request_to_string ~keep_alive:true ~meth:"GET" ~target:"/healthz"
         "");
    read_ok rdr
  in
  let r1 = exchange () in
  let r2 = exchange () in
  Alcotest.(check (pair int int)) "two exchanges, one connection" (200, 200)
    (r1.Http.status, r2.Http.status);
  Alcotest.(check (option string))
    "kept alive" (Some "keep-alive")
    (Http.header r1.Http.headers "connection")

(* Bytes that are not a request: a 400 that closes the connection. *)
let test_malformed_bytes_answered () =
  with_server @@ fun srv ->
  with_connection srv @@ fun sock rdr ->
  Http.write_all sock "GET nopath HTTP/1.1\r\n\r\n";
  let r = read_ok rdr in
  Alcotest.(check int) "400" 400 r.Http.status;
  Alcotest.(check (option string))
    "closing" (Some "close")
    (Http.header r.Http.headers "connection");
  match Http.read_response rdr with
  | Error Http.Eof -> ()
  | _ -> Alcotest.fail "connection must close after a malformed request"

(* N concurrent identical requests: the engine must run exactly once —
   the leader computes, concurrent followers coalesce onto its flight,
   and stragglers hit the shared cache. Either way the store records one
   miss and one store for the key. *)
let test_concurrent_identical_requests_run_engine_once () =
  with_server ~config:{ base_config with Server.jobs = 2 } @@ fun srv ->
  let coalesced = Metrics.counter "serve.coalesced" in
  let coalesced0 = Metrics.counter_value coalesced in
  let clients = 6 in
  let body = "{\"benchmark\":\"elliptic\",\"time\":25,\"power\":40}" in
  let results = Array.make clients (0, "") in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () -> results.(i) <- request srv ~meth:"POST" ~path:"/synth" body)
          ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun i (status, text) ->
      Alcotest.(check int) (Printf.sprintf "client %d status" i) 200 status;
      match json_field "feasible" text with
      | Some (Json.Bool true) -> ()
      | _ -> Alcotest.fail ("client body: " ^ text))
    results;
  match Server.store srv with
  | None -> Alcotest.fail "server should be caching"
  | Some store ->
    let s = Store.stats store in
    Alcotest.(check int) "one engine run (one cache miss)" 1 s.Store.misses;
    Alcotest.(check int) "one cache store" 1 s.Store.stores;
    Alcotest.(check int) "every other client shared it"
      (clients - 1)
      (s.Store.hits + (Metrics.counter_value coalesced - coalesced0))

(* [Http.call] reads bodies past the 1 MiB request cap (/debug/flight and
   /trace can be that large): a one-shot peer answers with 2 MiB. *)
let test_call_reads_past_the_body_cap () =
  let size = 2 * 1024 * 1024 in
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close lsock) @@ fun () ->
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 1;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let peer =
    Thread.create
      (fun () ->
        let conn, _ = Unix.accept ~cloexec:true lsock in
        ignore (Http.read_request (Http.reader (Unix.read conn)));
        Http.write_all conn
          (Http.to_string ~keep_alive:false
             (Http.response 200 (String.make size 'x')));
        Unix.close conn)
      ()
  in
  let r = Http.call ~port ~meth:"GET" ~path:"/debug/flight" "" in
  Thread.join peer;
  Alcotest.(check (pair int int))
    "whole body read" (200, size)
    (r.Http.status, String.length r.Http.body)

let test_graceful_shutdown () =
  let srv = Server.start base_config in
  let port = Server.port srv in
  let status, _ = request srv ~meth:"GET" ~path:"/healthz" "" in
  Alcotest.(check int) "alive before stop" 200 status;
  Server.stop srv;
  Server.stop srv (* idempotent *);
  Alcotest.(check int) "drained" 0 (Server.inflight srv);
  match Http.call ~port ~meth:"GET" ~path:"/healthz" "" with
  | _ -> Alcotest.fail "listener must be closed after stop"
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()

(* --- request-scoped telemetry -------------------------------------------- *)

let test_request_id_on_every_response () =
  with_server @@ fun srv ->
  let { Http.headers = head; _ } = call srv ~meth:"GET" ~path:"/healthz" "" in
  (match Http.header head "x-request-id" with
  | Some id -> Alcotest.(check bool) "generated id non-empty" true (id <> "")
  | None -> Alcotest.fail "no x-request-id on a 200");
  let { Http.headers = head404; _ } = call srv ~meth:"GET" ~path:"/nope" "" in
  (match Http.header head404 "x-request-id" with
  | Some _ -> ()
  | None -> Alcotest.fail "no x-request-id on a 404");
  let { Http.headers = head_echo; _ } =
    call srv
      ~headers:[ ("X-Request-Id", "client-id-42") ]
      ~meth:"GET" ~path:"/healthz" ""
  in
  Alcotest.(check (option string))
    "well-formed client id echoed" (Some "client-id-42")
    (Http.header head_echo "x-request-id");
  let { Http.headers = head_bad; _ } =
    call srv
      ~headers:[ ("X-Request-Id", String.make 200 'a') ]
      ~meth:"GET" ~path:"/healthz" ""
  in
  match Http.header head_bad "x-request-id" with
  | Some id ->
    Alcotest.(check bool) "oversized client id replaced" true
      (String.length id <= 64)
  | None -> Alcotest.fail "no x-request-id when the client id is rejected"

let test_request_id_in_flight_trace () =
  with_server @@ fun srv ->
  let { Http.headers = head; _ } =
    call srv
      ~headers:[ ("X-Request-Id", "rid-traced-7") ]
      ~meth:"GET" ~path:"/healthz" ""
  in
  Alcotest.(check (option string))
    "id echoed" (Some "rid-traced-7")
    (Http.header head "x-request-id");
  let spans =
    List.filter (fun e -> e.Event.name = "serve.request") (flight_events srv)
  in
  Alcotest.(check bool) "serve.request span recorded in flight" true
    (spans <> []);
  Alcotest.(check bool) "the span carries the request id" true
    (List.exists
       (fun e ->
         List.assoc_opt "request_id" e.Event.args = Some "rid-traced-7")
       spans)

(* A /synth's parse, fingerprint and encode each leave a span inside its
   serve.request span, on the handler's own lane. *)
let test_request_work_spans () =
  with_server @@ fun srv ->
  let status, _ =
    request srv ~meth:"POST" ~path:"/synth"
      {|{"dfg": "graph g\nnode 0 a input\nnode 1 b add\nnode 2 c output\nedge 0 1\nedge 1 2", "time": 4}|}
  in
  Alcotest.(check int) "synth answered" 200 status;
  let events = flight_events srv in
  let within (outer : Event.t) (e : Event.t) =
    e.Event.tid = outer.Event.tid
    && e.Event.ts_ns >= outer.Event.ts_ns
    && Event.end_ns e <= Event.end_ns outer
  in
  let synths =
    List.filter
      (fun e ->
        e.Event.name = "serve.request"
        && List.assoc_opt "path" e.Event.args = Some "/synth")
      events
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " inside the /synth request") true
        (List.exists
           (fun e ->
             e.Event.name = name && List.exists (fun r -> within r e) synths)
           events))
    [ "serve.parse"; "serve.fingerprint"; "serve.encode" ]

let test_metrics_prometheus_negotiation () =
  with_server @@ fun srv ->
  let { Http.status; headers = head; body } =
    call srv
      ~headers:[ ("Accept", "text/plain") ]
      ~meth:"GET" ~path:"/metrics" ""
  in
  Alcotest.(check int) "prometheus 200" 200 status;
  (match Http.header head "content-type" with
  | Some ct ->
    Alcotest.(check string) "prometheus content type"
      "text/plain; version=0.0.4; charset=utf-8" ct
  | None -> Alcotest.fail "no content-type");
  (match Metrics.validate_prometheus body with
  | Ok n -> Alcotest.(check bool) "exposition has samples" true (n > 0)
  | Error msg -> Alcotest.fail ("served exposition invalid: " ^ msg));
  (* ?format=prometheus forces the text form without an Accept header. *)
  let status, body = request srv ~meth:"GET" ~path:"/metrics?format=prometheus" "" in
  Alcotest.(check int) "forced prometheus 200" 200 status;
  match Metrics.validate_prometheus body with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("forced exposition invalid: " ^ msg)

let test_debug_flight_endpoint () =
  with_server @@ fun srv ->
  ignore (request srv ~meth:"GET" ~path:"/healthz" "");
  Alcotest.(check bool) "requests appear in the live dump" true
    (List.exists (fun e -> e.Event.name = "serve.request") (flight_events srv))

let test_debug_flight_disabled () =
  with_server ~config:{ base_config with Server.flight_capacity = 0 }
  @@ fun srv ->
  let status, body = request srv ~meth:"GET" ~path:"/debug/flight" "" in
  Alcotest.(check int) "flight off -> 404" 404 status;
  (match json_field "error" body with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.fail ("flight 404 body: " ^ body));
  let _, health = request srv ~meth:"GET" ~path:"/healthz" "" in
  match json_field "flight" health with
  | Some Json.Null -> ()
  | _ -> Alcotest.fail ("healthz must report flight off: " ^ health)

(* A server installs and removes only its own recorders: a bounded
   recorder its caller installed keeps recording across the server's
   start and stop. *)
let test_caller_recorder_survives_server () =
  let mine = Trace.make ~capacity:256 () in
  Trace.with_sink mine (fun () ->
      with_server (fun srv ->
          ignore (request srv ~meth:"GET" ~path:"/healthz" ""));
      Trace.instant "after-stop");
  let names = List.map (fun e -> e.Event.name) (Trace.events mine) in
  Alcotest.(check bool) "still installed after the server stopped" true
    (List.mem "after-stop" names);
  Alcotest.(check bool) "holds the server's serve.request spans" true
    (List.mem "serve.request" names)

let test_inflight_gauge_drains_to_zero () =
  with_server @@ fun srv ->
  for _ = 1 to 3 do
    ignore (request srv ~meth:"GET" ~path:"/healthz" "")
  done;
  ignore
    (request srv ~meth:"POST" ~path:"/synth"
       "{\"benchmark\":\"hal\",\"time\":8,\"power\":60}");
  (* Metrics.reset would zero it too — the point is that the gauge tracks
     live requests and returns to zero on its own once they drain. *)
  Alcotest.(check (float 0.))
    "serve.inflight back to zero after the requests drain" 0.
    (Metrics.gauge_value (Metrics.gauge "serve.inflight"))

let test_access_log_lines () =
  let path = Filename.temp_file "pchls_access" ".jsonl" in
  with_server
    ~config:{ base_config with Server.access_log = Some path; slow_ms = 1e9 }
    (fun srv ->
      let { Http.headers = head; _ } =
        call srv
          ~headers:[ ("X-Request-Id", "rid-logged-3") ]
          ~meth:"GET" ~path:"/healthz" ""
      in
      Alcotest.(check (option string))
        "id echoed" (Some "rid-logged-3")
        (Http.header head "x-request-id");
      ignore (request srv ~meth:"GET" ~path:"/nope" ""));
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let records =
    List.rev_map
      (fun line ->
        match Json.parse line with
        | Ok json -> json
        | Error msg -> Alcotest.fail ("access line unparseable: " ^ msg))
      !lines
  in
  Alcotest.(check int) "one record per request" 2 (List.length records);
  let by_path p =
    match
      List.find_opt
        (fun r -> Json.member "path" r = Some (Json.String p))
        records
    with
    | Some r -> r
    | None -> Alcotest.fail ("no access record for " ^ p)
  in
  let health = by_path "/healthz" in
  (match Json.member "request_id" health with
  | Some (Json.String "rid-logged-3") -> ()
  | _ -> Alcotest.fail "access record without the request id");
  (match Json.member "status" health with
  | Some (Json.Number 200.) -> ()
  | _ -> Alcotest.fail "access record without status 200");
  (match Json.member "dur_ms" health with
  | Some (Json.Number d) ->
    Alcotest.(check bool) "duration non-negative" true (d >= 0.)
  | _ -> Alcotest.fail "access record without dur_ms");
  match Json.member "status" (by_path "/nope") with
  | Some (Json.Number 404.) -> ()
  | _ -> Alcotest.fail "404 not logged"

(* --- overload protection -------------------------------------------------- *)

let with_chaos spec f =
  Fault.set (Some spec);
  Fun.protect ~finally:(fun () -> Fault.set None) f

let counter_delta name f =
  let c = Metrics.counter name in
  let before = Metrics.counter_value c in
  let result = f () in
  (result, Metrics.counter_value c - before)

let test_shed_on_forced_admission_refusal () =
  with_server @@ fun srv ->
  let { Http.status; headers = head; body }, shed =
    counter_delta "serve.shed" @@ fun () ->
    with_chaos "serve.shed" @@ fun () ->
    call srv ~meth:"GET" ~path:"/healthz" ""
  in
  Alcotest.(check int) "shed -> 503" 503 status;
  (match Http.header head "retry-after" with
  | Some s ->
    Alcotest.(check bool) "retry-after is a positive integer" true
      (match int_of_string_opt s with Some n -> n >= 1 | None -> false)
  | None -> Alcotest.fail "shed response without retry-after");
  (match json_field "error" body with
  | Some (Json.String "overloaded") -> ()
  | _ -> Alcotest.fail ("shed body: " ^ body));
  (match json_field "reason" body with
  | Some (Json.String "admission queue full; retry later") -> ()
  | _ -> Alcotest.fail ("shed reason: " ^ body));
  Alcotest.(check bool) "shed counted" true (shed >= 1);
  (* Disarmed again, the daemon serves normally and reports the shed. *)
  let status, health = request srv ~meth:"GET" ~path:"/healthz" "" in
  Alcotest.(check int) "alive after shedding" 200 status;
  match json_field "shed" health with
  | Some (Json.Number n) ->
    Alcotest.(check bool) "healthz counts the shed" true (n >= 1.)
  | _ -> Alcotest.fail ("healthz without shed count: " ^ health)

let test_degraded_preflight_mode () =
  with_server @@ fun srv ->
  let { Http.status; headers = head; body } =
    call srv ~meth:"POST" ~path:"/synth"
      "{\"benchmark\":\"hal\",\"time\":8,\"power\":60,\"degraded\":\"preflight\"}"
  in
  Alcotest.(check int) "bounds can't prove -> 206 partial" 206 status;
  Alcotest.(check (option string))
    "degraded header" (Some "preflight")
    (Http.header head "x-pchls-degraded");
  (match json_field "degraded" body with
  | Some (Json.String "preflight") -> ()
  | _ -> Alcotest.fail ("degraded body: " ^ body));
  (match json_field "partial" body with
  | Some (Json.String "degraded") -> ()
  | _ -> Alcotest.fail ("degraded body without partial: " ^ body));
  (match json_field "report" body with
  | Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail ("degraded body without the preflight report: " ^ body));
  (* Infeasibility proved by the bounds is exact: still a 422, and still
     marked degraded. *)
  let { Http.status; headers = head; body } =
    call srv ~meth:"POST" ~path:"/synth"
      "{\"benchmark\":\"hal\",\"time\":4,\"power\":10,\"degraded\":\"preflight\"}"
  in
  Alcotest.(check int) "provably infeasible -> 422" 422 status;
  Alcotest.(check (option string))
    "422 keeps the degraded header" (Some "preflight")
    (Http.header head "x-pchls-degraded");
  match json_field "infeasible" body with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail ("infeasible degraded body: " ^ body)

let test_degraded_clamped_mode () =
  with_server @@ fun srv ->
  let { Http.status; headers = head; body } =
    call srv ~meth:"POST" ~path:"/synth"
      "{\"benchmark\":\"hal\",\"time\":8,\"power\":60,\"degraded\":\"clamped\"}"
  in
  Alcotest.(check bool)
    (Printf.sprintf "clamped answers 200 or 206 (got %d)" status)
    true
    (status = 200 || status = 206);
  Alcotest.(check (option string))
    "degraded header" (Some "clamped")
    (Http.header head "x-pchls-degraded");
  (match json_field "feasible" body with
  | Some (Json.Bool _) -> ()
  | _ -> Alcotest.fail ("clamped body: " ^ body));
  let status, _ =
    request srv ~meth:"POST" ~path:"/synth"
      "{\"benchmark\":\"hal\",\"time\":8,\"power\":60,\"degraded\":\"bogus\"}"
  in
  Alcotest.(check int) "unknown degraded mode -> 400" 400 status

let test_degraded_sweep_preflight () =
  with_server @@ fun srv ->
  let { Http.status; headers = head; body } =
    call srv ~meth:"POST" ~path:"/sweep"
      "{\"benchmark\":\"hal\",\"times\":[4,8],\"powers\":[10,60],\
       \"degraded\":\"preflight\"}"
  in
  Alcotest.(check int) "degraded sweep -> 206" 206 status;
  Alcotest.(check (option string))
    "degraded header" (Some "preflight")
    (Http.header head "x-pchls-degraded");
  match json_field "points" body with
  | Some (Json.List points) ->
    Alcotest.(check int) "2x2 grid" 4 (List.length points);
    List.iter
      (fun p ->
        match Json.member "status" p with
        | Some (Json.String ("infeasible" | "unknown")) -> ()
        | _ -> Alcotest.fail ("degraded sweep point: " ^ body))
      points
  | _ -> Alcotest.fail ("degraded sweep body: " ^ body)

let test_breaker_opens_and_recovers () =
  with_server ~config:{ base_config with Server.breaker_cooldown_ms = 100. }
  @@ fun srv ->
  let body = "{\"benchmark\":\"hal\",\"time\":8,\"power\":60}" in
  (* Five consecutive handler crashes: enough samples at a 100% failure
     rate to trip the default breaker (window 20, threshold 0.5,
     min_samples 5). *)
  with_chaos "serve.handler" (fun () ->
      for i = 1 to 5 do
        let status, _ = request srv ~meth:"POST" ~path:"/synth" body in
        Alcotest.(check int) (Printf.sprintf "crash %d -> 500" i) 500 status
      done);
  let { Http.status; headers = head; body = text } =
    call srv ~meth:"POST" ~path:"/synth" body
  in
  Alcotest.(check int) "open breaker fast-fails 503" 503 status;
  (match Http.header head "retry-after" with
  | Some _ -> ()
  | None -> Alcotest.fail "breaker 503 without retry-after");
  (match json_field "error" text with
  | Some (Json.String "breaker open") -> ()
  | _ -> Alcotest.fail ("breaker 503 body: " ^ text));
  let _, health = request srv ~meth:"GET" ~path:"/healthz" "" in
  (match json_field "breakers" health with
  | Some breakers -> (
    match Json.member "synth" breakers with
    | Some (Json.String "open") -> ()
    | _ -> Alcotest.fail ("healthz breakers while open: " ^ health))
  | None -> Alcotest.fail ("healthz without breakers: " ^ health));
  (* Other endpoints keep their own breakers: /preflight still serves. *)
  let status, _ = request srv ~meth:"POST" ~path:"/preflight" body in
  Alcotest.(check int) "other endpoints unaffected" 200 status;
  (* Past the cooldown (100ms + <=25% jitter) the probe is admitted, the
     fault is disarmed, and a success closes the breaker. *)
  Thread.delay 0.15;
  let status, _ = request srv ~meth:"POST" ~path:"/synth" body in
  Alcotest.(check int) "probe succeeds after cooldown" 200 status;
  let _, health = request srv ~meth:"GET" ~path:"/healthz" "" in
  (match json_field "breakers" health with
  | Some breakers -> (
    match Json.member "synth" breakers with
    | Some (Json.String "closed") -> ()
    | _ -> Alcotest.fail ("healthz breakers after recovery: " ^ health))
  | None -> Alcotest.fail ("healthz without breakers: " ^ health));
  (* Each transition is a serve.breaker instant naming both states. *)
  let transitions =
    List.filter_map
      (fun e ->
        let arg k = Option.value (List.assoc_opt k e.Event.args) ~default:"" in
        if e.Event.name = "serve.breaker" && arg "breaker" = "synth" then
          Some (arg "from", arg "state")
        else None)
      (flight_events srv)
  in
  Alcotest.(check (list (pair string string)))
    "synth breaker transitions"
    [ ("closed", "open"); ("open", "half-open"); ("half-open", "closed") ]
    transitions

(* The server's deadline ceiling is its one wall limit: a hung engine
   task winds down there and answers 206 with its budget verdict. Such
   answers are not failures, so a run of them leaves the breaker closed. *)
let test_ceiling_answers_hung_handler () =
  let limit_ms = 100. and poll_ms = 25. in
  with_server
    ~config:{ base_config with Server.max_deadline_ms = Some limit_ms }
  @@ fun srv ->
  let body = "{\"benchmark\":\"hal\",\"time\":8,\"power\":60}" in
  let (), partials =
    counter_delta "serve.partial" @@ fun () ->
    with_chaos "serve.hang" @@ fun () ->
    for i = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      let status, text = request srv ~meth:"POST" ~path:"/synth" body in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check int) (Printf.sprintf "hang %d at the ceiling -> 206" i)
        206 status;
      (match json_field "partial" text with
      | Some (Json.String "wall-clock deadline exceeded") -> ()
      | _ -> Alcotest.fail ("206 body without the budget verdict: " ^ text));
      (* The hang spins until the deadline, so the answer cannot come
         before the ceiling; it lands within ceiling + one poll interval,
         plus grace for engine wind-down and scheduling. *)
      Alcotest.(check bool)
        (Printf.sprintf "hung for at least the ceiling (%.0fms)"
           (elapsed *. 1e3))
        true
        (elapsed >= (limit_ms /. 1000.) -. 0.02);
      Alcotest.(check bool)
        (Printf.sprintf "answered near ceiling + poll (%.0fms)"
           (elapsed *. 1e3))
        true
        (elapsed <= ((limit_ms +. poll_ms) /. 1000.) +. 0.375)
    done
  in
  Alcotest.(check int) "each counted in serve.partial" 5 partials;
  let status, _ = request srv ~meth:"POST" ~path:"/synth" body in
  Alcotest.(check int) "breaker still closed: unarmed -> 200" 200 status

(* Identical hung requests coalesce onto one engine run, and every
   follower shares the leader's 206 as it is. *)
let test_hung_flight_shared () =
  with_server
    ~config:{ base_config with Server.max_deadline_ms = Some 300.; jobs = 2 }
  @@ fun srv ->
  let clients = 4 in
  let body = "{\"benchmark\":\"elliptic\",\"time\":25,\"power\":40}" in
  let results = Array.make clients (0, "") in
  let (), runs =
    counter_delta "engine.runs" @@ fun () ->
    with_chaos "serve.hang" @@ fun () ->
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            results.(i) <- request srv ~meth:"POST" ~path:"/synth" body)
          ())
    |> List.iter Thread.join
  in
  Array.iteri
    (fun i (status, text) ->
      Alcotest.(check int) (Printf.sprintf "client %d -> 206" i) 206 status;
      match json_field "partial" text with
      | Some (Json.String _) -> ()
      | _ -> Alcotest.fail ("206 body without partial: " ^ text))
    results;
  Alcotest.(check int) "one engine run" 1 runs

(* Every wall limit folds into the one budget deadline and the tightest
   wins. A hang only ends at its deadline, so an answer well before the
   ceiling shows that the request's deadline or the degraded clamp
   stopped it, and a request deadline above the ceiling is cut to it. *)
let test_tighter_limit_wins () =
  let ceiling_ms = 500. in
  with_server
    ~config:
      {
        base_config with
        Server.max_deadline_ms = Some ceiling_ms;
        degrade_deadline_ms = 30.;
      }
  @@ fun srv ->
  let hung_synth fields =
    with_chaos "serve.hang" @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let status, body =
      request srv ~meth:"POST" ~path:"/synth"
        ("{\"benchmark\":\"hal\",\"time\":8,\"power\":60," ^ fields ^ "}")
    in
    Alcotest.(check int) (fields ^ ": -> 206") 206 status;
    (match json_field "partial" body with
    | Some (Json.String _) -> ()
    | _ -> Alcotest.fail ("206 body without partial: " ^ body));
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  List.iter
    (fun fields ->
      let ms = hung_synth fields in
      Alcotest.(check bool)
        (Printf.sprintf "%s: stopped before the ceiling (%.0fms)" fields ms)
        true (ms < ceiling_ms))
    [
      "\"deadline_ms\":30";
      "\"deadline_ms\":5000,\"degraded\":\"clamped\"";
    ];
  let ms = hung_synth "\"deadline_ms\":5000" in
  Alcotest.(check bool)
    (Printf.sprintf "deadline_ms above the ceiling is cut to it (%.0fms)" ms)
    true
    (ms >= ceiling_ms -. 20. && ms < 5000.)

let test_healthz_overload_fields () =
  with_server @@ fun srv ->
  let _, body = request srv ~meth:"GET" ~path:"/healthz" "" in
  (match json_field "queue" body with
  | Some q -> (
    match (Json.member "depth" q, Json.member "max" q, Json.member "age_limit_ms" q) with
    | Some (Json.Number depth), Some (Json.Number max), Some (Json.Number age) ->
      Alcotest.(check bool) "queue shape" true
        (depth >= 0. && max = 64. && age = 1000.)
    | _ -> Alcotest.fail ("healthz queue shape: " ^ body))
  | None -> Alcotest.fail ("healthz without queue: " ^ body));
  (match json_field "pressure" body with
  | Some (Json.Number p) ->
    Alcotest.(check bool) "pressure in [0,1]" true (p >= 0. && p <= 1.)
  | _ -> Alcotest.fail ("healthz without pressure: " ^ body));
  (match json_field "degraded" body with
  | Some (Json.String "none") -> ()
  | _ -> Alcotest.fail ("healthz idle degraded tier: " ^ body));
  (* Breakers off: healthz says so explicitly. *)
  with_server ~config:{ base_config with Server.breaker = false } @@ fun srv ->
  let _, body = request srv ~meth:"GET" ~path:"/healthz" "" in
  match json_field "breakers" body with
  | Some Json.Null -> ()
  | _ -> Alcotest.fail ("healthz with breakers off: " ^ body)

let () =
  Alcotest.run "serve"
    [
      ( "http",
        [
          Alcotest.test_case "parse request" `Quick test_parse_request;
          Alcotest.test_case "bare LF" `Quick test_bare_lf_accepted;
          Alcotest.test_case "keep-alive matrix" `Quick test_keep_alive_matrix;
          Alcotest.test_case "two requests, one stream" `Quick
            test_two_requests_one_stream;
          Alcotest.test_case "malformed rejected" `Quick test_malformed_rejected;
          Alcotest.test_case "size limits" `Quick test_limits;
          Alcotest.test_case "eof between requests" `Quick
            test_eof_between_requests;
          Alcotest.test_case "response wire format" `Quick
            test_response_roundtrip;
          Alcotest.test_case "request writer round-trips" `Quick
            test_request_writer_roundtrip;
          QCheck_alcotest.to_alcotest prop_split_invariant;
          QCheck_alcotest.to_alcotest prop_garbage_never_raises;
          QCheck_alcotest.to_alcotest prop_mutated_request_never_raises;
        ] );
      ( "coalesce",
        [
          Alcotest.test_case "single flight" `Quick test_coalesce_single_flight;
          Alcotest.test_case "exception shared, flight forgotten" `Quick
            test_coalesce_exception_shared;
          Alcotest.test_case "sequential calls recompute" `Quick
            test_coalesce_sequential_not_shared;
        ] );
      ( "server",
        [
          Alcotest.test_case "healthz" `Quick test_healthz;
          Alcotest.test_case "synth status mapping" `Quick test_synth_statuses;
          Alcotest.test_case "client errors" `Quick test_client_errors;
          Alcotest.test_case "payload too large" `Quick test_payload_too_large;
          Alcotest.test_case "metrics and trace" `Quick test_metrics_and_trace;
          Alcotest.test_case "sweep and pareto" `Quick test_sweep_and_pareto;
          Alcotest.test_case "oversized power range refused early" `Quick
            test_oversized_power_range;
          Alcotest.test_case "alike 10 000-node chain answered quickly"
            `Quick test_alike_chain_answered_quickly;
          Alcotest.test_case "keep-alive connection" `Quick
            test_keep_alive_connection;
          Alcotest.test_case "malformed bytes answered 400" `Quick
            test_malformed_bytes_answered;
          Alcotest.test_case "concurrent identical requests" `Quick
            test_concurrent_identical_requests_run_engine_once;
          Alcotest.test_case "graceful shutdown" `Quick test_graceful_shutdown;
          Alcotest.test_case "client reads past the body cap" `Quick
            test_call_reads_past_the_body_cap;
          Alcotest.test_case "time past the cap answered 400" `Quick
            test_time_cap;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "x-request-id on every response" `Quick
            test_request_id_on_every_response;
          Alcotest.test_case "request id in flight trace" `Quick
            test_request_id_in_flight_trace;
          Alcotest.test_case "parse, fingerprint and encode spans" `Quick
            test_request_work_spans;
          Alcotest.test_case "prometheus negotiation" `Quick
            test_metrics_prometheus_negotiation;
          Alcotest.test_case "debug flight endpoint" `Quick
            test_debug_flight_endpoint;
          Alcotest.test_case "debug flight disabled" `Quick
            test_debug_flight_disabled;
          Alcotest.test_case "caller recorder survives a server" `Quick
            test_caller_recorder_survives_server;
          Alcotest.test_case "inflight gauge drains" `Quick
            test_inflight_gauge_drains_to_zero;
          Alcotest.test_case "access log lines" `Quick test_access_log_lines;
        ] );
      ( "overload",
        [
          Alcotest.test_case "forced shed answers 503 + retry-after" `Quick
            test_shed_on_forced_admission_refusal;
          Alcotest.test_case "degraded preflight mode" `Quick
            test_degraded_preflight_mode;
          Alcotest.test_case "degraded clamped mode" `Quick
            test_degraded_clamped_mode;
          Alcotest.test_case "degraded sweep" `Quick test_degraded_sweep_preflight;
          Alcotest.test_case "breaker opens and recovers" `Quick
            test_breaker_opens_and_recovers;
          Alcotest.test_case "hang answered partial at ceiling" `Quick
            test_ceiling_answers_hung_handler;
          Alcotest.test_case "hung flight shared by followers" `Quick
            test_hung_flight_shared;
          Alcotest.test_case "tighter limit wins" `Quick
            test_tighter_limit_wins;
          Alcotest.test_case "healthz overload fields" `Quick
            test_healthz_overload_fields;
        ] );
    ]
