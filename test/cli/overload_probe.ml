(* Deterministic end-to-end probe for `overload.t`: starts an in-process
   server and walks the overload-protection surface — a forced shed (503
   + Retry-After), degraded preflight/clamped answers and their
   x-pchls-degraded header, a breaker tripping on a seeded 5xx burst and
   recovering after its cooldown, and an injected hang answered 206 at
   the server's deadline ceiling — printing byte-stable lines (volatile
   numbers redacted to <n>) for cram to pin. *)

module Http = Pchls_serve.Http
module Server = Pchls_serve.Server
module Fault = Pchls_resil.Fault
module Json = Pchls_obs.Json

(* A header's value, or <missing>; an integer value is redacted to <n>. *)
let header ?(redact_int = false) r name =
  match Http.header r.Http.headers name with
  | Some s when redact_int && int_of_string_opt s <> None -> "<n>"
  | Some s -> s
  | None -> "<missing>"

let rec redact = function
  | Json.Number _ -> Json.String "<n>"
  | Json.Obj fields -> Json.Obj (List.map (fun (k, v) -> (k, redact v)) fields)
  | Json.List items -> Json.List (List.map redact items)
  | (Json.String _ | Json.Bool _ | Json.Null) as j -> j

let redacted body =
  match Json.parse body with
  | Ok json -> Json.to_string (redact json)
  | Error msg -> failwith ("unparseable JSON: " ^ msg)

let breaker_state port name =
  match Json.parse (Http.call ~port ~meth:"GET" ~path:"/healthz" "").Http.body with
  | Ok json -> (
    match Json.member "breakers" json with
    | Some breakers -> (
      match Json.member name breakers with
      | Some (Json.String s) -> s
      | _ -> "<missing>")
    | None -> "<missing>")
  | Error _ -> "<unparseable>"

let with_chaos spec f =
  Fault.set (Some spec);
  Fun.protect ~finally:(fun () -> Fault.set None) f

let () =
  let config =
    {
      Server.default_config with
      Server.port = 0;
      threads = 2;
      jobs = 1;
      breaker_cooldown_ms = 100.;
      max_deadline_ms = Some 100.;
    }
  in
  let srv = Server.start config in
  let port = Server.port srv in

  (* A forced admission refusal: the full shed contract on one line. *)
  let r =
    with_chaos "serve.shed" (fun () ->
        Http.call ~port ~meth:"GET" ~path:"/healthz" "")
  in
  Printf.printf "shed: %d retry-after=%s %s\n" r.Http.status
    (header ~redact_int:true r "retry-after")
    r.Http.body;

  (* Degraded answers, pinned by the request-body override. *)
  let r =
    Http.call ~port ~meth:"POST" ~path:"/synth"
      "{\"benchmark\":\"hal\",\"time\":8,\"power\":60,\"degraded\":\"preflight\"}"
  in
  Printf.printf "degraded-preflight: %d header=%s %s\n" r.Http.status
    (header r "x-pchls-degraded")
    (redacted r.Http.body);
  let r =
    Http.call ~port ~meth:"POST" ~path:"/synth"
      "{\"benchmark\":\"hal\",\"time\":4,\"power\":10,\"degraded\":\"preflight\"}"
  in
  Printf.printf "degraded-infeasible: %d header=%s infeasible=%b\n" r.Http.status
    (header r "x-pchls-degraded")
    (match Json.parse r.Http.body with
    | Ok json -> Json.member "infeasible" json = Some (Json.Bool true)
    | Error _ -> false);
  let r =
    Http.call ~port ~meth:"POST" ~path:"/synth"
      "{\"benchmark\":\"hal\",\"time\":8,\"power\":60,\"degraded\":\"clamped\"}"
  in
  Printf.printf "degraded-clamped: %d header=%s feasible=%b\n" r.Http.status
    (header r "x-pchls-degraded")
    (match Json.parse r.Http.body with
    | Ok json -> Json.member "feasible" json = Some (Json.Bool true)
    | Error _ -> false);

  (* Trip the synth breaker with five injected handler crashes, watch it
     fast-fail, then recover through a cooldown probe. *)
  let synth () =
    Http.call ~port ~meth:"POST" ~path:"/synth"
      "{\"benchmark\":\"hal\",\"time\":8,\"power\":60}"
  in
  with_chaos "serve.handler" (fun () ->
      for _ = 1 to 5 do
        ignore (synth ())
      done);
  let r = synth () in
  Printf.printf "breaker-open: %d retry-after=%s %s state=%s\n" r.Http.status
    (header ~redact_int:true r "retry-after")
    r.Http.body
    (breaker_state port "synth");
  Thread.delay 0.15;
  let r = synth () in
  Printf.printf "breaker-recovered: %d state=%s\n" r.Http.status
    (breaker_state port "synth");

  (* An injected hang: the engine task winds down at the server's
     deadline ceiling and answers 206 with its budget verdict, not left
     dangling. *)
  let r = with_chaos "serve.hang" synth in
  Printf.printf "hang-ceiling: %d partial=%s\n" r.Http.status
    (match Json.parse r.Http.body with
    | Ok json -> (
      match Json.member "partial" json with
      | Some (Json.String reason) -> reason
      | _ -> "<missing>")
    | Error _ -> "<unparseable>");

  Server.stop srv
