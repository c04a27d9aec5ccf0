(* Deterministic end-to-end probe for `serve.t`: starts an in-process
   server (ephemeral port), exercises the telemetry surface — /healthz
   shape, x-request-id echo, Prometheus negotiation, /debug/flight, the
   SIGUSR1 flight dump and the JSON-lines access log — and prints
   byte-stable lines (every number redacted to <n>) for cram to pin.
   With the argument `wire` it prints exact response bodies instead. *)

module Http = Pchls_serve.Http
module Server = Pchls_serve.Server
module Json = Pchls_obs.Json
module Metrics = Pchls_obs.Metrics
module Event = Pchls_obs.Event
module Trace = Pchls_obs.Trace

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
      let r = Http.call ~port ~meth:"POST" ~path body in
      Printf.printf "%s %s\n-> %d %s\n" path body r.Http.status r.Http.body)
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

  let header r name =
    Option.value ~default:"<missing>" (Http.header r.Http.headers name)
  in
  let r =
    Http.call ~port
      ~headers:[ ("X-Request-Id", "cram-rid-1") ]
      ~meth:"GET" ~path:"/healthz" ""
  in
  Printf.printf "healthz: %d %s\n" r.Http.status (redacted r.Http.body);
  Printf.printf "request-id echoed: %s\n" (header r "x-request-id");

  let r =
    Http.call ~port
      ~headers:[ ("Accept", "text/plain") ]
      ~meth:"GET" ~path:"/metrics" ""
  in
  Printf.printf "metrics: %d %s %s\n" r.Http.status (header r "content-type")
    (match Metrics.validate_prometheus r.Http.body with
    | Ok _ -> "valid-prometheus"
    | Error msg -> "INVALID: " ^ msg);

  let r = Http.call ~port ~meth:"GET" ~path:"/debug/flight" "" in
  Printf.printf "debug/flight: %d %s\n" r.Http.status
    (match Event.of_chrome r.Http.body with
    | Ok _ -> "valid-chrome-trace"
    | Error msg -> "INVALID: " ^ msg);

  let r =
    Http.call ~port ~meth:"POST" ~path:"/synth"
      "{\"benchmark\":\"hal\",\"time\":8,\"power\":60}"
  in
  Printf.printf "synth: %d feasible=%b\n" r.Http.status
    (match Json.parse r.Http.body with
    | Ok json -> Json.member "feasible" json = Some (Json.Bool true)
    | Error _ -> false);

  (* The SIGUSR1 dump path `pchls serve` wires up in run(): install the
     same handler here, signal ourselves and wait for the handler to run
     at a safe point. *)
  let dump = Trace.install_sigusr1 ~path:"flight-sig.json" () in
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
