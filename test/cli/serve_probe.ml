(* Deterministic end-to-end probe for `serve.t`: starts an in-process
   server (ephemeral port), exercises the telemetry surface — /healthz
   shape, x-request-id echo, Prometheus negotiation, /debug/flight, the
   SIGUSR1 flight dump and the JSON-lines access log — and prints
   byte-stable lines (every number redacted to <n>) for cram to pin.
   With the argument `wire` it prints exact response bodies instead. *)

module Server = Pchls_serve.Server
module Json = Pchls_obs.Json
module Metrics = Pchls_obs.Metrics
module Trace = Pchls_obs.Trace
module Flight = Pchls_obs.Flight

let connect port =
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  sock

let send_all sock s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring sock s off (len - off))
  in
  go 0

(* One request per connection; read to EOF (the probe always sends
   Connection: close). Returns (status, header block, body). *)
let request port ?(headers = []) ~meth ~path body =
  let sock = connect port in
  Fun.protect ~finally:(fun () -> Unix.close sock) @@ fun () ->
  send_all sock
    (Printf.sprintf
       "%s %s HTTP/1.1\r\nhost: probe\r\ncontent-length: %d\r\n%sconnection: \
        close\r\n\r\n%s"
       meth path (String.length body)
       (String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers))
       body);
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read sock chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  let raw = Buffer.contents buf in
  let hdr_end =
    let rec search i =
      if i + 4 > String.length raw then failwith "no header terminator"
      else if String.sub raw i 4 = "\r\n\r\n" then i + 4
      else search (i + 1)
    in
    search 0
  in
  let status = int_of_string (String.trim (String.sub raw 9 3)) in
  ( status,
    String.sub raw 0 hdr_end,
    String.sub raw hdr_end (String.length raw - hdr_end) )

let header_value head name =
  let lower = String.lowercase_ascii head in
  let tag = String.lowercase_ascii name ^ ":" in
  let tl = String.length tag in
  let rec search i =
    if i + tl > String.length lower then None
    else if String.sub lower i tl = tag then
      let rest = String.sub head (i + tl) (String.length head - i - tl) in
      Some (String.trim (List.hd (String.split_on_char '\r' rest)))
    else search (i + 1)
  in
  search 0

(* Every number becomes "<n>": the shape of the document is pinned, the
   volatile values (uptime, counts, durations) are not. *)
let rec redact = function
  | Json.Number _ -> Json.String "<n>"
  | Json.Obj fields -> Json.Obj (List.map (fun (k, v) -> (k, redact v)) fields)
  | Json.List items -> Json.List (List.map redact items)
  | (Json.String _ | Json.Bool _ | Json.Null) as j -> j

let redacted body =
  match Json.parse body with
  | Ok json -> Json.to_string (redact json)
  | Error msg -> failwith ("unparseable JSON: " ^ msg)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* `pchls-serve-probe wire`: the exact response bodies of the synthesis
   endpoints for hal, one request per line, so any change to the wire
   format shows up as a diff. Every body is deterministic: requests run
   one at a time against a fresh server. *)
let wire () =
  let srv =
    Server.start { Server.default_config with Server.port = 0; threads = 1; jobs = 1 }
  in
  let port = Server.port srv in
  List.iter
    (fun (path, body) ->
      let status, _, resp = request port ~meth:"POST" ~path body in
      Printf.printf "%s %s\n-> %d %s\n" path body status resp)
    [
      ("/synth", {|{"benchmark":"hal","time":8,"power":60}|});
      ("/synth", {|{"benchmark":"hal","time":4,"power":10}|});
      ("/synth", {|{"benchmark":"hal","time":8,"max_iters":0}|});
      ("/synth", {|{"benchmark":"hal","time":5,"power":100,"preflight":true}|});
      ("/synth", {|{"benchmark":"hal","time":5,"power":100,"degraded":"preflight"}|});
      ("/sweep", {|{"benchmark":"hal","time":8,"p_from":10,"p_to":30,"p_step":10}|});
      ("/pareto", {|{"benchmark":"hal","times":[6,8],"powers":[20,60]}|});
      ("/check", {|{"benchmark":"hal","time":17,"power":10}|});
      ("/preflight", {|{"benchmark":"hal","time":5,"power":100}|});
      ("/synth", {|{"benchmark":"hal","time":0}|});
      ("/sweep", {|{"benchmark":"hal","time":8,"p_from":10,"p_to":5}|});
      ("/synth", {|{"benchmark":"hal","time":8,"policy":"min-cost"}|});
    ];
  Server.stop srv

let telemetry () =
  let config =
    {
      Server.default_config with
      Server.port = 0;
      threads = 2;
      jobs = 1;
      access_log = Some "access.jsonl";
      slow_ms = 1e9;
    }
  in
  let srv = Server.start config in
  let port = Server.port srv in

  let status, head, body =
    request port
      ~headers:[ ("X-Request-Id", "cram-rid-1") ]
      ~meth:"GET" ~path:"/healthz" ""
  in
  Printf.printf "healthz: %d %s\n" status (redacted body);
  Printf.printf "request-id echoed: %s\n"
    (Option.value ~default:"<missing>" (header_value head "x-request-id"));

  let status, head, body =
    request port
      ~headers:[ ("Accept", "text/plain") ]
      ~meth:"GET" ~path:"/metrics" ""
  in
  Printf.printf "metrics: %d %s %s\n" status
    (Option.value ~default:"<missing>" (header_value head "content-type"))
    (match Metrics.validate_prometheus body with
    | Ok _ -> "valid-prometheus"
    | Error msg -> "INVALID: " ^ msg);

  let status, _, body = request port ~meth:"GET" ~path:"/debug/flight" "" in
  Printf.printf "debug/flight: %d %s\n" status
    (match Trace.validate_chrome body with
    | Ok _ -> "valid-chrome-trace"
    | Error msg -> "INVALID: " ^ msg);

  let status, _, body =
    request port ~meth:"POST" ~path:"/synth"
      "{\"benchmark\":\"hal\",\"time\":8,\"power\":60}"
  in
  Printf.printf "synth: %d feasible=%b\n" status
    (match Json.parse body with
    | Ok json -> Json.member "feasible" json = Some (Json.Bool true)
    | Error _ -> false);

  (* The SIGUSR1 dump path `pchls serve` wires up in run(): install the
     same handler here, signal ourselves and wait for the handler to run
     at a safe point. *)
  let dump = Flight.install_sigusr1 ~path:"flight-sig.json" () in
  Unix.kill (Unix.getpid ()) Sys.sigusr1;
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (Sys.file_exists dump)) && Unix.gettimeofday () < deadline do
    ignore (Sys.opaque_identity (ref 0));
    Thread.yield ()
  done;
  Printf.printf "sigusr1: %s\n"
    (if Sys.file_exists dump then "dumped " ^ dump else "NO DUMP");

  Server.stop srv;

  let records =
    String.split_on_char '\n' (read_file "access.jsonl")
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l ->
           match Json.parse l with
           | Ok json -> json
           | Error msg -> failwith ("bad access line: " ^ msg))
  in
  Printf.printf "access-log: %d records, ids=%b statuses=%b\n"
    (List.length records)
    (List.for_all
       (fun r ->
         match Json.member "request_id" r with
         | Some (Json.String s) -> s <> ""
         | _ -> false)
       records)
    (List.for_all
       (fun r ->
         match Json.member "status" r with
         | Some (Json.Number _) -> true
         | _ -> false)
       records)

let () =
  match Sys.argv with
  | [| _; "wire" |] -> wire ()
  | _ -> telemetry ()
