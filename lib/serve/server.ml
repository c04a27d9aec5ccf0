module Library = Pchls_fulib.Library
module Module_spec = Pchls_fulib.Module_spec
module Design = Pchls_core.Design
module Explore = Pchls_core.Explore
module Analysis = Pchls_analysis.Analysis
module Diag = Pchls_diag.Diag
module Preflight = Pchls_preflight.Preflight
module Store = Pchls_cache.Store
module Pool = Pchls_par.Pool
module Json = Pchls_obs.Json
module Metrics = Pchls_obs.Metrics
module Trace = Pchls_obs.Trace
module Jsonlog = Pchls_obs.Log
module Clock = Pchls_obs.Clock
module Budget = Pchls_resil.Budget
module Fault = Pchls_resil.Fault
module Admission = Pchls_resil.Admission
module Breaker = Pchls_resil.Breaker

let m_requests = Metrics.counter "serve.requests"
let m_partial = Metrics.counter "serve.partial"
let m_accept_faults = Metrics.counter "serve.accept_faults"
let m_shed = Metrics.counter "serve.shed"
let m_degraded = Metrics.counter "serve.degraded"

(* Worst accept->503-written time over the process lifetime: the direct
   observable for the "shedding costs milliseconds" contract, free of
   client-side scheduling noise. Only the acceptor writes it. *)
let g_shed_max_ms = Metrics.gauge "serve.shed_max_ms"
let g_inflight = Metrics.gauge "serve.inflight"

let h_request_ns =
  Metrics.histogram ~buckets:Metrics.ns_buckets "serve.request_ns"

(* Response-class counters are registered eagerly so the catalogue shows
   them at zero (the OBSERVABILITY.md convention). *)
let m_response_class =
  let mk c = (c, Metrics.counter (Printf.sprintf "serve.response.%dxx" c)) in
  [ mk 2; mk 4; mk 5 ]

let count_response status =
  match List.assoc_opt (status / 100) m_response_class with
  | Some c -> Metrics.incr c
  | None -> ()

let version = "1.0.0"

type config = {
  host : string;
  port : int;
  threads : int;
  jobs : int;
  library : Library.t;
  cache : bool;
  cache_dir : string option;
  cache_mem_entries : int option;
  max_deadline_ms : float option;
  max_body_bytes : int;
  trace : bool;
  flight_capacity : int;
  access_log : string option;
  slow_ms : float;
  max_queue : int;
  queue_age_ms : float;
  shed_threshold : float;
  degrade_deadline_ms : float;
  breaker : bool;
  breaker_cooldown_ms : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    threads = 8;
    jobs = 1;
    library = Library.default;
    cache = true;
    cache_dir = None;
    cache_mem_entries = Some 4096;
    max_deadline_ms = None;
    max_body_bytes = 1024 * 1024;
    trace = false;
    flight_capacity = Trace.default_capacity;
    access_log = None;
    slow_ms = 1000.;
    max_queue = 64;
    queue_age_ms = 1000.;
    shed_threshold = 0.75;
    degrade_deadline_ms = 200.;
    breaker = true;
    breaker_cooldown_ms = 1000.;
  }

(* What a coalesced flight shares: the engine outcome plus the leader's
   budget verdict, so followers report the same partiality the leader
   observed. *)
type 'a flights = ('a * string option) Coalesce.t

type t = {
  config : config;
  lsock : Unix.file_descr;
  bound_port : int;
  cache : Store.t option;
  pool : Pool.t;
  synths : Explore.result flights;
  sweeps : Explore.point list flights;
  admission : Unix.file_descr Admission.t;
  breakers : (string * Breaker.t) list;  (* keyed by endpoint path *)
  stopping : bool Atomic.t;
  inflight_count : int Atomic.t;
  shed_count : int Atomic.t;
  sink : Trace.t option;
  flight : Trace.t option;
  access : Jsonlog.t option;
  (* Request-id generation: a per-boot prefix plus an atomic sequence, so
     ids are unique within a boot and distinguishable across restarts. *)
  id_prefix : string;
  req_seq : int Atomic.t;
  started_ns : int64;
  mutable acceptor : Thread.t option;
  mutable handlers : Thread.t list;
}

let port t = t.bound_port
let store t = t.cache
let inflight t = Atomic.get t.inflight_count

(* --- overload state ------------------------------------------------------ *)

(* Queue pressure in [0, 1]: how full the admission queue is. 0 while
   handlers keep up; approaching 1 as the backlog nears the shed point. *)
let pressure srv =
  float_of_int (Admission.length srv.admission)
  /. float_of_int (max 1 (Admission.max_depth srv.admission))

type degrade = [ `None | `Clamp | `Preflight ]

let degrade_to_string = function
  | `None -> "none"
  | `Clamp -> "clamped"
  | `Preflight -> "preflight"

(* Two pressure tiers: past [shed_threshold] the anytime engine runs
   under a clamped deadline (fast 206s); past the midpoint between the
   threshold and saturation, /synth and /sweep answer from preflight
   bounds alone without touching the pool. A threshold above 1 can never
   be reached — the operator's way of turning degradation off. *)
let degrade_level srv : degrade =
  let p = pressure srv in
  let t = srv.config.shed_threshold in
  if p >= (t +. 1.) /. 2. then `Preflight
  else if p >= t then `Clamp
  else `None

(* --- request decoding --------------------------------------------------- *)

(* A caller error in the request body; mapped to 400. *)
exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* An optional field of one JSON type: [get] extracts it, and a value of
   any other type is a caller error. *)
let opt_field get kind name json =
  Option.map
    (fun v ->
      match get v with Some x -> x | None -> bad "%S must be %s" name kind)
    (Json.member name json)

let opt_string =
  opt_field (function Json.String s -> Some s | _ -> None) "a string"

let opt_number =
  opt_field (function Json.Number f -> Some f | _ -> None) "a number"

let opt_bool = opt_field (function Json.Bool b -> Some b | _ -> None) "a boolean"

let opt_int name json =
  Option.map
    (fun f ->
      if Float.is_integer f then int_of_float f
      else bad "%S must be an integer" name)
    (opt_number name json)

let number_list name json =
  match Json.member name json with
  | Some (Json.List items) ->
    Some
      (List.map
         (function
           | Json.Number f -> f
           | _ -> bad "%S must be an array of numbers" name)
         items)
  | Some _ -> bad "%S must be an array of numbers" name
  | None -> None

let parse_body (req : Http.request) =
  if req.Http.body = "" then bad "a JSON request body is required";
  match Json.parse req.Http.body with
  | Ok json -> json
  | Error msg -> bad "invalid JSON body: %s" msg

(* The verdict of one of the shared {!Request} checks; [checked] reports
   a reason about one value under the field's own name. *)
let or_bad = function Ok v -> v | Error msg -> raise (Bad msg)
let checked name check v =
  or_bad (Result.map_error (Printf.sprintf "%S %s" name) (check v))

(* Exactly one graph source, mirroring the CLI's -b/--file/--beh. *)
let graph_field json =
  let source name make = Option.map make (opt_string name json) in
  or_bad
    (Request.graph ~missing:"a graph is required: benchmark, dfg or beh"
       ~conflict:"pass exactly one of benchmark, dfg, beh"
       (List.filter_map Fun.id
          [
            source "benchmark" (fun name -> Request.Benchmark name);
            source "dfg" (fun text -> Request.Dfg { origin = "dfg"; text });
            source "beh" (fun text ->
                let name =
                  Option.value (opt_string "name" json) ~default:"request"
                in
                Request.Beh { origin = "beh"; name; text });
          ]))

let time_field json =
  match opt_int "time" json with
  | Some t -> checked "time" Request.time_limit t
  | None -> bad "\"time\" is required"

let power_field json =
  match opt_number "power" json with
  | Some p -> checked "power" Request.power_limit p
  | None -> infinity

let times_field json =
  match number_list "times" json with
  | Some [] -> bad "\"times\" must not be empty"
  | Some ts ->
    List.map
      (fun f ->
        match Request.time_limit (int_of_float f) with
        | Ok t when Float.is_integer f -> t
        | Ok _ | Error _ ->
          bad "\"times\" entries must be integers in 1..%d"
            Request.max_time_limit)
      ts
  | None -> [ time_field json ]

let powers_field json =
  match number_list "powers" json with
  | Some [] -> bad "\"powers\" must not be empty"
  | Some ps ->
    List.to_seq
      (List.map
         (fun p ->
           match Request.power_limit p with
           | Ok p -> p
           | Error _ -> bad "\"powers\" entries must be > 0")
         ps)
  | None -> (
    match
      (opt_number "p_from" json, opt_number "p_to" json, opt_number "p_step" json)
    with
    | None, None, None -> Seq.return (power_field json)
    | Some from, Some upto, step ->
      or_bad
        (Request.power_range ~names:("\"p_from\"", "\"p_step\"") ~from ~upto
           ~step:(Option.value step ~default:2.5))
    | _ -> bad "a power range needs both \"p_from\" and \"p_to\"")

let grid_fields json =
  let times = times_field json in
  let powers = powers_field json in
  or_bad (Request.grid ~times ~powers)

let policy_field json =
  Option.map (fun name -> or_bad (Request.policy name)) (opt_string "policy" json)

let preflight_field json = Option.value (opt_bool "preflight" json) ~default:false

(* The degraded mode for this request: normally the server's current
   pressure tier, but the body may pin one explicitly ("degraded":
   "preflight" asks for the bounds-only answer, "none" opts out of
   pressure degradation) — load tests and clients that prefer a fast
   coarse answer use this. *)
let degrade_mode srv json : degrade =
  match opt_string "degraded" json with
  | None -> degrade_level srv
  | Some "none" -> `None
  | Some "clamped" -> `Clamp
  | Some "preflight" -> `Preflight
  | Some s -> bad "unknown \"degraded\" mode %S (none, clamped, preflight)" s

(* The request's own deadline_ms/max_iters, ceilinged by (and defaulting
   to) the server-wide max_deadline_ms. *)
let budget_field config json =
  Request.budget ?ceiling_ms:config.max_deadline_ms
    ?deadline_ms:
      (Option.map (checked "deadline_ms" Request.deadline_ms)
         (opt_number "deadline_ms" json))
    ?max_iters:
      (Option.map (checked "max_iters" Request.max_iters) (opt_int "max_iters" json))
    ()

(* --- response encoding -------------------------------------------------- *)

let error_body ~error reason =
  Json.to_string
    (Json.Obj [ ("error", Json.String error); ("reason", Json.String reason) ])

let design_fields name (d : Design.t) ~area ~peak =
  let breakdown = Design.area d in
  [
    ("name", Json.String name);
    ("feasible", Json.Bool true);
    ("time_limit", Json.Number (float_of_int (Design.time_limit d)));
    ("power_limit", Json.Number (Design.power_limit d));
    ("area", Json.Number area);
    ("peak", Json.Number peak);
    ( "area_breakdown",
      Json.Obj
        [
          ("fu", Json.Number breakdown.Design.fu);
          ("registers", Json.Number breakdown.Design.registers);
          ("mux", Json.Number breakdown.Design.mux);
          ("total", Json.Number breakdown.Design.total);
        ] );
    ("makespan", Json.Number (float_of_int (Design.makespan d)));
    ("registers", Json.Number (float_of_int (Design.register_count d)));
    ("energy", Json.Number (Design.energy d));
    ( "instances",
      Json.List
        (List.map
           (fun (inst : Design.instance) ->
             Json.Obj
               [
                 ("module", Json.String inst.Design.spec.Module_spec.name);
                 ( "ops",
                   Json.List
                     (List.map
                        (fun (op, start) ->
                          Json.List
                            [
                              Json.Number (float_of_int op);
                              Json.Number (float_of_int start);
                            ])
                        inst.Design.ops) );
               ])
           (Design.instances d)) );
  ]

let infeasible_fields name reason =
  [
    ("name", Json.String name);
    ("error", Json.String "infeasible");
    ("reason", Json.String reason);
  ]

let json_of_point (pt : Explore.point) =
  let base =
    [
      ("time", Json.Number (float_of_int pt.Explore.time_limit));
      ("power", Json.Number pt.Explore.power_limit);
    ]
  in
  Json.Obj
    (base
    @
    match pt.Explore.result with
    | Explore.Feasible { area; peak; _ } ->
      [
        ("status", Json.String "feasible");
        ("area", Json.Number area);
        ("peak", Json.Number peak);
      ]
    | Explore.Infeasible reason ->
      [ ("status", Json.String "infeasible"); ("reason", Json.String reason) ]
    | Explore.Pruned reason ->
      [ ("status", Json.String "pruned"); ("reason", Json.String reason) ]
    | Explore.Failed reason ->
      [ ("status", Json.String "failed"); ("reason", Json.String reason) ])

(* Add the partial marker and downgrade a success to 206 Partial Content
   when the request's budget expired — the HTTP spelling of exit code 3. *)
let apply_partial status body_fields = function
  | None -> (status, body_fields)
  | Some reason ->
    Metrics.incr m_partial;
    let status = if status = 200 || status = 422 then 206 else status in
    (status, body_fields @ [ ("partial", Json.String reason) ])

let respond status fields =
  Http.response status (Json.to_string (Json.Obj fields))

(* --- handlers ----------------------------------------------------------- *)

let dispatch srv f = Pool.run srv.pool f

(* The serve.hang chaos seam: an armed fault turns this engine task into
   a cooperative hang — it spins polling its budget exactly like a stuck
   optimization loop would, until the budget's deadline passes, the server
   drains, or a hard cap gives up (so a hang without a deadline cannot pin
   a domain forever). *)
let maybe_hang srv budget =
  if Fault.fires "serve.hang" then begin
    let give_up = Int64.add (Clock.now_ns ()) 5_000_000_000L in
    let interrupted () =
      match budget with
      | Some b -> Budget.interrupted b <> None
      | None -> false
    in
    while
      (not (interrupted ()))
      && (not (Atomic.get srv.stopping))
      && Int64.compare (Clock.now_ns ()) give_up < 0
    do
      Thread.delay 0.002
    done
  end

(* The deadline clamp of a degraded (clamped-mode) request. *)
let clamp_ms srv = function
  | `Clamp -> Some srv.config.degrade_deadline_ms
  | `None -> None

(* One engine task of a request: [f] runs on the pool under the request's
   budget, whose clock starts here (the wait for a pool domain counts).
   Its deadline is the tightest of the request's own (capped by the
   server's [max_deadline_ms]) and the degraded-mode [clamp_ms], so the
   engine winds down at the first of them through the polls it already
   makes. The result comes back with the budget's partial verdict. *)
let engine_task srv ?clamp_ms budget f =
  let budget = Request.start ?clamp_ms budget in
  let v =
    dispatch srv (fun () ->
        maybe_hang srv budget;
        f budget)
  in
  (v, Option.map Budget.reason_to_string (Option.bind budget Budget.check))

(* Followers share the leader's outcome as it is, partial verdict and
   raised exception included. *)
let coalesce flights ~key compute =
  let outcome, role = Coalesce.run flights ~key compute in
  match outcome with
  | Ok flight -> (flight, ("coalesced", Json.Bool (role = Coalesce.Joined)))
  | Error e -> raise e

(* Stamp a degraded answer: the x-pchls-degraded header is the contract
   clients key on (the body shape varies by endpoint and mode). *)
let with_degraded (mode : degrade) resp =
  match mode with
  | `None -> resp
  | `Clamp | `Preflight ->
    Metrics.incr m_degraded;
    { resp with
      Http.headers =
        ("x-pchls-degraded", degrade_to_string mode) :: resp.Http.headers;
    }

(* A preflight report answer: infeasibility proved by the bounds is exact
   (422); anything else is 200, or 206 partial when [degraded]. The
   Preflight layer's own JSON value goes under "report", so the HTTP
   payload and `pchls preflight --json` never drift. *)
let report_response ?(degraded = false) ~name r =
  let infeasible = Preflight.infeasible r in
  let degraded_fields =
    if degraded then
      [ ("degraded", Json.String "preflight"); ("partial", Json.String "degraded") ]
    else []
  in
  respond
    (if infeasible then 422 else if degraded then 206 else 200)
    ((("name", Json.String name) :: degraded_fields)
    @ [ ("infeasible", Json.Bool infeasible); ("report", Preflight.to_json r) ])

let handle_synth srv req =
  let json = parse_body req in
  let name, g = graph_field json in
  let time_limit = time_field json in
  let power_limit = power_field json in
  match degrade_mode srv json with
  | `Preflight ->
    (* Static bounds alone, computed inline: no pool slot, no engine
       iteration. *)
    with_degraded `Preflight
      (report_response ~degraded:true ~name
         (Preflight.analyze ~library:srv.config.library ~time_limit
            ~power_limit g))
  | (`None | `Clamp) as mode ->
    let policy = policy_field json in
    let preflight = preflight_field json in
    let budget = budget_field srv.config json in
    let fp = Explore.fingerprint ?policy ~library:srv.config.library g in
    let key =
      Printf.sprintf "synth|%s|t=%d|p=%h|pf=%b|%s|deg=%s" fp time_limit
        power_limit preflight (Request.signature budget)
        (degrade_to_string mode)
    in
    let (result, partial), coalesced =
      coalesce srv.synths ~key (fun () ->
          engine_task srv ?clamp_ms:(clamp_ms srv mode) budget
            (fun deadline ->
              Explore.solve ?policy ?deadline ~preflight
                ~library:srv.config.library ?cache:srv.cache ~fp g ~time_limit
                ~power_limit))
    in
    let answer status fields =
      let status, fields = apply_partial status fields partial in
      respond status (fields @ [ coalesced ])
    in
    with_degraded mode
      (match result with
      | Explore.Feasible { area; peak; design } ->
        answer 200 (design_fields name design ~area ~peak)
      | Explore.Infeasible reason | Explore.Pruned reason ->
        answer 422 (infeasible_fields name reason)
      | Explore.Failed reason ->
        Http.response 500 (error_body ~error:"internal" reason))

let degraded_sweep srv ~name g ~times ~powers =
  let points =
    List.concat_map
      (fun time_limit ->
        List.map
          (fun power_limit ->
            let r =
              Preflight.analyze ~library:srv.config.library ~time_limit
                ~power_limit g
            in
            Json.Obj
              [
                ("time", Json.Number (float_of_int time_limit));
                ("power", Json.Number power_limit);
                ( "status",
                  Json.String
                    (if Preflight.infeasible r then "infeasible" else "unknown")
                );
              ])
          powers)
      times
  in
  respond 206
    [
      ("name", Json.String name);
      ("degraded", Json.String "preflight");
      ("partial", Json.String "degraded");
      ("points", Json.List points);
    ]

let handle_sweep srv req ~pareto =
  let json = parse_body req in
  let name, g = graph_field json in
  let times, powers = grid_fields json in
  match degrade_mode srv json with
  | `Preflight -> with_degraded `Preflight (degraded_sweep srv ~name g ~times ~powers)
  | (`None | `Clamp) as mode ->
    let policy = policy_field json in
    let preflight = preflight_field json in
    let budget = budget_field srv.config json in
    let fp = Explore.fingerprint ?policy ~library:srv.config.library g in
    let key =
      Printf.sprintf "sweep|%s|t=%s|p=%s|pf=%b|%s|deg=%s" fp
        (String.concat "," (List.map string_of_int times))
        (String.concat "," (List.map (Printf.sprintf "%h") powers))
        preflight (Request.signature budget)
        (degrade_to_string mode)
    in
    (* The whole grid is one pool task: grid points run sequentially
       against the shared cache while concurrent requests spread across
       the pool's domains. *)
    let (points, partial), coalesced =
      coalesce srv.sweeps ~key (fun () ->
          engine_task srv ?clamp_ms:(clamp_ms srv mode) budget
            (fun deadline ->
              Explore.sweep ?policy ?deadline ~preflight
                ~library:srv.config.library ?cache:srv.cache ~fp g ~times
                ~powers))
    in
    let fields =
      [
        ("name", Json.String name);
        ("points", Json.List (List.map json_of_point points));
      ]
      @ (if pareto then
           [
             ( "pareto",
               Json.List (List.map json_of_point (Explore.pareto points)) );
           ]
         else [])
      @ [ coalesced ]
    in
    let status, fields = apply_partial 200 fields partial in
    with_degraded mode (respond status fields)

let handle_check srv req =
  let json = parse_body req in
  let name, g = graph_field json in
  let time_limit = time_field json in
  let power_limit = power_field json in
  let policy = policy_field json in
  let budget = budget_field srv.config json in
  let fp = Explore.fingerprint ?policy ~library:srv.config.library g in
  let result, partial =
    engine_task srv budget (fun deadline ->
        Explore.solve ?policy ?deadline ~library:srv.config.library
          ?cache:srv.cache ~fp g ~time_limit ~power_limit)
  in
  match result with
  | Explore.Feasible { design; _ } ->
    let ds =
      dispatch srv (fun () ->
          Analysis.run_all ~library:srv.config.library design)
    in
    let status = if Diag.has_errors ds then 422 else 200 in
    let status, fields =
      apply_partial status
        [
          ("name", Json.String name);
          ("summary", Json.String (Analysis.summary ds));
          ("errors", Json.Number (float_of_int (Diag.count Diag.Error ds)));
        ]
        partial
    in
    (* The diagnostics are the Diag layer's own JSON value (the one
       `pchls check --json` prints), so both surfaces stay in lockstep. *)
    respond status (fields @ [ ("diagnostics", Diag.list_to_json ds) ])
  | Explore.Infeasible reason | Explore.Pruned reason ->
    let status, fields =
      apply_partial 422 (infeasible_fields name reason) partial
    in
    respond status fields
  | Explore.Failed reason -> Http.response 500 (error_body ~error:"internal" reason)

let handle_preflight srv req =
  let json = parse_body req in
  let name, g = graph_field json in
  let time_limit = time_field json in
  let power_limit = power_field json in
  (* The exact clique search is exponential in the graph size and runs
     outside every budget, so a client may only lower its cap. *)
  let cap = Preflight.default_exact_max_vertices in
  let exact_max =
    Option.map
      (fun n ->
        if n >= 0 && n <= cap then n
        else bad "\"exact_max\" must be in 0..%d" cap)
      (opt_int "exact_max" json)
  in
  report_response ~name
    (dispatch srv (fun () ->
         Preflight.analyze ?exact_max_vertices:exact_max
           ~library:srv.config.library ~time_limit ~power_limit g))

let handle_healthz srv =
  let cache =
    match srv.cache with
    | None -> Json.Null
    | Some store ->
      let s = Store.stats store in
      Json.Obj
        [
          ("hits", Json.Number (float_of_int s.Store.hits));
          ("misses", Json.Number (float_of_int s.Store.misses));
          ("stores", Json.Number (float_of_int s.Store.stores));
          ("evictions", Json.Number (float_of_int s.Store.evictions));
          ("entries", Json.Number (float_of_int (Store.size store)));
        ]
  in
  respond 200
    [
      ("status", Json.String "ok");
      ("version", Json.String version);
      ( "uptime_s",
        Json.Number (Clock.elapsed_ns ~since:srv.started_ns /. 1e9) );
      ("inflight", Json.Number (float_of_int (inflight srv)));
      ( "pool",
        Json.Obj
          [
            ("jobs", Json.Number (float_of_int (Pool.jobs srv.pool)));
            ("threads", Json.Number (float_of_int srv.config.threads));
          ] );
      ( "flight",
        match srv.flight with
        | None -> Json.Null
        | Some fr ->
          Json.Obj
            [
              ("retained", Json.Number (float_of_int (Trace.retained fr)));
              ("recorded", Json.Number (float_of_int (Trace.count fr)));
              ("dropped", Json.Number (float_of_int (Trace.dropped fr)));
            ] );
      ("cache", cache);
      ( "queue",
        Json.Obj
          [
            ( "depth",
              Json.Number (float_of_int (Admission.length srv.admission)) );
            ( "max",
              Json.Number (float_of_int (Admission.max_depth srv.admission)) );
            ("age_limit_ms", Json.Number (Admission.max_age_ms srv.admission));
          ] );
      ("pressure", Json.Number (pressure srv));
      ("degraded", Json.String (degrade_to_string (degrade_level srv)));
      ("shed", Json.Number (float_of_int (Atomic.get srv.shed_count)));
      ( "breakers",
        match srv.breakers with
        | [] -> Json.Null
        | bs ->
          Json.Obj
            (List.map
               (fun (_, b) ->
                 ( Breaker.name b,
                   Json.String (Breaker.state_to_string (Breaker.state b)) ))
               bs) );
    ]

(* GET /trace and GET /debug/flight: the server's unbounded or bounded
   recorder as a Chrome trace, or a 404 saying how to turn it on. *)
let handle_recorder srv (req : Http.request) =
  let recorder, off =
    if req.Http.path = "/trace" then
      (srv.sink, "tracing is off; start the server with --trace")
    else
      ( srv.flight,
        "flight recorder is off; start the server with a non-zero \
         --flight-capacity" )
  in
  match recorder with
  | Some r -> Http.response 200 (Trace.to_chrome r)
  | None -> Http.response 404 (error_body ~error:"not found" off)

(* Content negotiation on GET /metrics: Prometheus scrapers send
   Accept: text/plain (and ?format=prometheus forces it from a browser);
   everyone else keeps the JSON document. *)
let wants_prometheus (req : Http.request) =
  let contains_text_plain s =
    let n = String.length s and m = 10 (* "text/plain" *) in
    let rec go i =
      i + m <= n && (String.sub s i m = "text/plain" || go (i + 1))
    in
    go 0
  in
  match List.assoc_opt "format" req.Http.query with
  | Some ("prometheus" | "text") -> true
  | Some _ -> false
  | None -> (
    match Http.header req.Http.headers "accept" with
    | Some accept -> contains_text_plain accept
    | None -> false)

let handle_metrics req =
  if wants_prometheus req then
    Http.response
      ~content_type:"text/plain; version=0.0.4; charset=utf-8" 200
      (Metrics.to_prometheus ())
  else Http.response 200 (Metrics.to_json ())

let method_not_allowed allow =
  Http.response 405 ~headers:[ ("allow", allow) ]
    (error_body ~error:"method not allowed" ("use " ^ allow))

(* Every endpoint, spelled once: (path, method, handler). Routing, the 405
   [allow] header and the circuit breakers (one per POST endpoint, see
   {!start}) all derive from this list. *)
let endpoints =
  [
    ("/synth", "POST", handle_synth);
    ("/sweep", "POST", fun srv req -> handle_sweep srv req ~pareto:false);
    ("/pareto", "POST", fun srv req -> handle_sweep srv req ~pareto:true);
    ("/check", "POST", handle_check);
    ("/preflight", "POST", handle_preflight);
    ("/healthz", "GET", fun srv _ -> handle_healthz srv);
    ("/metrics", "GET", fun _ req -> handle_metrics req);
    ("/trace", "GET", handle_recorder);
    ("/debug/flight", "GET", handle_recorder);
  ]

let route srv (req : Http.request) =
  match List.find_opt (fun (path, _, _) -> path = req.Http.path) endpoints with
  | Some (_, meth, handle) when meth = req.Http.meth -> handle srv req
  | Some (_, allow, _) -> method_not_allowed allow
  | None -> Http.response 404 (error_body ~error:"not found" req.Http.path)

(* --- request-scoped telemetry ------------------------------------------- *)

(* A client-supplied X-Request-Id is honored when it is shaped like an id
   (so a hostile header cannot smuggle log-breaking bytes); anything else
   gets a generated one. *)
let request_id srv (req : Http.request) =
  let is_id_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
    | _ -> false
  in
  match Http.header req.Http.headers "x-request-id" with
  | Some id when id <> "" && String.length id <= 64 && String.for_all is_id_char id
    -> id
  | Some _ | None ->
    Printf.sprintf "%s-%06d" srv.id_prefix
      (Atomic.fetch_and_add srv.req_seq 1)

let access_log srv (req : Http.request) ~id ~status ~dur_ns ~queue_ms =
  match srv.access with
  | None -> ()
  | Some log ->
    let dur_ms = dur_ns /. 1e6 in
    let slow = dur_ms >= srv.config.slow_ms in
    let level =
      if status >= 500 then Jsonlog.Error
      else if slow then Jsonlog.Warn
      else Jsonlog.Info
    in
    Jsonlog.log log level
      ~fields:
        ([
           ("request_id", Json.String id);
           ("method", Json.String req.Http.meth);
           ("path", Json.String req.Http.path);
           ("status", Json.Number (float_of_int status));
           ("dur_ms", Json.Number dur_ms);
         ]
        @
        match queue_ms with
        | None -> []
        | Some q -> [ ("queue_ms", Json.Number q) ])
      (if slow then "slow-request" else "access")

let retry_after_s ms = max 1 (int_of_float (Float.ceil (ms /. 1000.)))

let routed srv req =
  try
    (* The chaos seam: an armed serve.handler fault is a handler crash,
       which must surface as a 500 response, never kill the daemon. *)
    Fault.inject "serve.handler";
    route srv req
  with
  | Bad msg -> Http.response 400 (error_body ~error:"bad request" msg)
  | e ->
    Trace.note_crash ~origin:"serve.handler" e;
    Http.response 500 (error_body ~error:"internal" (Printexc.to_string e))

(* The breaker guard around [routed]: an open breaker answers 503 without
   touching the pool; outcomes of admitted calls feed the window (any 5xx
   counts as a failure — handler crashes included; a 206 budget verdict
   is a success). *)
let guarded srv (req : Http.request) =
  let breaker =
    if req.Http.meth = "POST" then List.assoc_opt req.Http.path srv.breakers
    else None
  in
  match breaker with
  | None -> routed srv req
  | Some b ->
    if Breaker.acquire b then begin
      let resp = routed srv req in
      if resp.Http.status >= 500 then Breaker.failure b else Breaker.success b;
      resp
    end
    else
      Http.response 503
        ~headers:
          [
            ( "retry-after",
              string_of_int (retry_after_s (Breaker.retry_after_ms b)) );
          ]
        (error_body ~error:"breaker open"
           (Printf.sprintf "endpoint %s is failing; backing off"
              (Breaker.name b)))

let handle_request srv ~queue_ms req =
  let id = request_id srv req in
  Metrics.incr m_requests;
  Atomic.incr srv.inflight_count;
  Metrics.set g_inflight (float_of_int (Atomic.get srv.inflight_count));
  let started_ns = Clock.now_ns () in
  let resp =
    Trace.span ~cat:"serve"
      ~args:
        (if Trace.observed () then
           [
             ("request_id", id);
             ("method", req.Http.meth);
             ("path", req.Http.path);
           ]
         else [])
      "serve.request"
    @@ fun () -> guarded srv req
  in
  let dur_ns = Clock.elapsed_ns ~since:started_ns in
  Metrics.observe h_request_ns dur_ns;
  count_response resp.Http.status;
  Atomic.decr srv.inflight_count;
  Metrics.set g_inflight (float_of_int (Atomic.get srv.inflight_count));
  access_log srv req ~id ~status:resp.Http.status ~dur_ns ~queue_ms;
  { resp with Http.headers = ("x-request-id", id) :: resp.Http.headers }

(* --- connection plumbing ------------------------------------------------ *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One connection, serially: read a request, answer it, repeat while the
   client keeps the connection alive and the server is not draining. The
   receive timeout makes idle keep-alive connections poll the stopping
   flag, so a drain never waits on a silent client. *)
let serve_connection srv ~queue_ms conn =
  (try Unix.setsockopt_float conn Unix.SO_RCVTIMEO 0.25
   with Unix.Unix_error _ -> ());
  let fill buf pos len =
    let rec go () =
      match Unix.read conn buf pos len with
      | n -> n
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        if Atomic.get srv.stopping then 0 else go ()
      | exception Unix.Unix_error (ECONNRESET, _, _) -> 0
    in
    go ()
  in
  let rdr =
    Http.reader ~max_body_bytes:srv.config.max_body_bytes fill
  in
  (* The queue delay belongs to the first request only: later keep-alive
     exchanges never sat in the admission queue. *)
  let queue_ms = ref (Some queue_ms) in
  let rec exchange () =
    match Http.read_request rdr with
    | Error Http.Eof -> ()
    | Error (Http.Bad_request msg) ->
      Http.write_all conn
        (Http.to_string ~keep_alive:false
           (Http.response 400 (error_body ~error:"bad request" msg)))
    | Error (Http.Payload_too_large msg) ->
      Http.write_all conn
        (Http.to_string ~keep_alive:false
           (Http.response 413 (error_body ~error:"payload too large" msg)))
    | Ok req ->
      let keep_alive = Http.keep_alive req && not (Atomic.get srv.stopping) in
      let resp = handle_request srv ~queue_ms:!queue_ms req in
      queue_ms := None;
      Http.write_all conn (Http.to_string ~keep_alive resp);
      if keep_alive then exchange ()
  in
  Fun.protect ~finally:(fun () -> close_quietly conn) exchange

(* --- load shedding ------------------------------------------------------- *)

let shed_body_full = error_body ~error:"overloaded" "admission queue full; retry later"

let shed_body_stale =
  error_body ~error:"overloaded" "request waited too long in the admission queue"

let note_shed srv ~why =
  Metrics.incr m_shed;
  Atomic.incr srv.shed_count;
  Trace.instant ~cat:"serve" ~args:[ ("why", why) ] "serve.shed";
  match srv.access with
  | None -> ()
  | Some log ->
    Jsonlog.log log Jsonlog.Warn
      ~fields:[ ("status", Json.Number 503.); ("why", Json.String why) ]
      "shed"

let shed_response srv body =
  Http.response 503
    ~headers:
      [ ("retry-after", string_of_int (retry_after_s srv.config.queue_age_ms)) ]
    body

(* Shed at the front door: answer 503 immediately (the whole point is
   that rejection costs milliseconds), then drain and close off-thread —
   closing with unread request bytes in the socket would RST the
   response away before the client reads it, and the acceptor must never
   block on a slow client. The write itself is synchronous: the send
   buffer of a just-accepted socket is empty, so a ~150-byte response
   cannot block, and keeping it on the acceptor keeps rejection latency
   free of a thread hand-off. *)
let shed_connection srv ~why conn =
  let t0 = Clock.now_ns () in
  note_shed srv ~why;
  let resp = Http.to_string ~keep_alive:false (shed_response srv shed_body_full) in
  (try Http.write_all conn resp with Unix.Unix_error _ -> ());
  let ms = Clock.elapsed_ns ~since:t0 /. 1e6 in
  if ms > Metrics.gauge_value g_shed_max_ms then Metrics.set g_shed_max_ms ms;
  let finish () =
    (try Unix.shutdown conn Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    (try Unix.setsockopt_float conn Unix.SO_RCVTIMEO 0.2
     with Unix.Unix_error _ -> ());
    let buf = Bytes.create 1024 in
    (try
       while Unix.read conn buf 0 1024 > 0 do
         ()
       done
     with Unix.Unix_error _ -> ());
    close_quietly conn
  in
  ignore (Thread.create finish () : Thread.t)

(* A stale connection is answered from a handler thread, which can afford
   to read the request first: a complete, well-formed 503 exchange. *)
let shed_stale srv ~age_ms conn =
  note_shed srv ~why:(Printf.sprintf "stale after %.0fms queued" age_ms);
  (try Unix.setsockopt_float conn Unix.SO_RCVTIMEO 0.25
   with Unix.Unix_error _ -> ());
  let fill buf pos len =
    match Unix.read conn buf pos len with
    | n -> n
    | exception
        Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNRESET), _, _) ->
      0
  in
  let rdr = Http.reader ~max_body_bytes:srv.config.max_body_bytes fill in
  ignore (Http.read_request rdr);
  Http.write_all conn
    (Http.to_string ~keep_alive:false (shed_response srv shed_body_stale));
  close_quietly conn

let handler_loop srv =
  let rec go () =
    match Admission.take srv.admission with
    | Admission.Closed -> ()
    | Admission.Stale (conn, age_ms) ->
      shed_stale srv ~age_ms conn;
      go ()
    | Admission.Fresh (conn, queue_ms) ->
      serve_connection srv ~queue_ms conn;
      go ()
  in
  go ()

(* The acceptor polls the listening socket under a short select timeout so
   it observes the stopping flag without signals or socket tricks. An
   armed serve.accept fault models a connection lost at the accept
   boundary: the client is dropped, the daemon keeps accepting. An armed
   serve.shed fault forces the admission refusal path without actually
   filling the queue. *)
let accept_loop srv =
  while not (Atomic.get srv.stopping) do
    match Unix.select [ srv.lsock ] [] [] 0.25 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept ~cloexec:true srv.lsock with
      | exception Unix.Unix_error _ -> ()
      | conn, _ ->
        if Fault.fires "serve.accept" then begin
          Metrics.incr m_accept_faults;
          close_quietly conn
        end
        else if Fault.fires "serve.shed" then
          shed_connection srv ~why:"injected fault: serve.shed" conn
        else if not (Admission.offer srv.admission conn) then
          shed_connection srv ~why:"queue full" conn)
  done

(* --- lifecycle ---------------------------------------------------------- *)

let start config =
  if config.threads < 1 then
    invalid_arg
      (Printf.sprintf "Server.start: threads must be >= 1, got %d"
         config.threads);
  (* A dying client must surface as EPIPE on write, not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port) in
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lsock Unix.SO_REUSEADDR true;
     Unix.bind lsock addr;
     Unix.listen lsock 128
   with e ->
     close_quietly lsock;
     raise e);
  let bound_port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let cache =
    if config.cache then
      Some
        (Store.create ?dir:config.cache_dir
           ?mem_entries:config.cache_mem_entries ())
    else None
  in
  let recorder ?capacity on =
    if not on then None
    else begin
      let r = Trace.make ?capacity () in
      Trace.install r;
      Some r
    end
  in
  let sink = recorder config.trace in
  (* The flight recorder is on by default ("always-on"): a crashed or
     slow request leaves evidence without anyone having opted in.
     flight_capacity = 0 turns it off. *)
  let flight =
    recorder ~capacity:config.flight_capacity (config.flight_capacity > 0)
  in
  let access = Option.map (fun path -> Jsonlog.open_file path) config.access_log in
  (* One breaker per POST endpoint, keyed by path and named after it. GETs
     (health, metrics, debug) are never broken — an operator must be able
     to look at a sick server. *)
  let breakers =
    if not config.breaker then []
    else
      List.filter_map
        (fun (path, meth, _) ->
          if meth <> "POST" then None
          else
            let name = String.sub path 1 (String.length path - 1) in
            let on_transition old_state new_state =
              if Trace.observed () then
                Trace.instant ~cat:"serve"
                  ~args:
                    [
                      ("breaker", name);
                      ("from", Breaker.state_to_string old_state);
                      ("state", Breaker.state_to_string new_state);
                    ]
                  "serve.breaker"
            in
            Some
              ( path,
                Breaker.create ~cooldown_ms:config.breaker_cooldown_ms
                  ~on_transition ~name () ))
        endpoints
  in
  let srv =
    {
      config;
      lsock;
      bound_port;
      cache;
      pool = Pool.create ~jobs:config.jobs ();
      synths = Coalesce.create ();
      sweeps = Coalesce.create ();
      admission =
        Admission.create ~max_depth:config.max_queue
          ~max_age_ms:config.queue_age_ms ();
      breakers;
      stopping = Atomic.make false;
      inflight_count = Atomic.make 0;
      shed_count = Atomic.make 0;
      sink;
      flight;
      access;
      id_prefix =
        Printf.sprintf "%08Lx"
          (Int64.logand (Clock.now_ns ()) 0xFFFFFFFFL);
      req_seq = Atomic.make 0;
      started_ns = Clock.now_ns ();
      acceptor = None;
      handlers = [];
    }
  in
  srv.acceptor <- Some (Thread.create accept_loop srv);
  srv.handlers <-
    List.init config.threads (fun _ -> Thread.create handler_loop srv);
  srv

let stop srv =
  if not (Atomic.exchange srv.stopping true) then begin
    (* Drain: the acceptor exits at its next poll, the admission queue
       closes (already-queued connections still drain), handler threads
       serve every accepted connection to completion, then the worker
       pool is released. Disk-tier cache entries were written atomically
       as they were produced, so there is nothing further to flush. *)
    Option.iter Thread.join srv.acceptor;
    srv.acceptor <- None;
    Admission.close srv.admission;
    List.iter Thread.join srv.handlers;
    srv.handlers <- [];
    Pool.shutdown srv.pool;
    Option.iter Trace.uninstall srv.sink;
    Option.iter Trace.uninstall srv.flight;
    Option.iter Jsonlog.close srv.access;
    close_quietly srv.lsock
  end

let run config =
  let srv = start config in
  let stop_requested = Atomic.make false in
  let on_signal _ =
    (* Second signal: the operator is done waiting — force-exit. *)
    if Atomic.exchange stop_requested true then Stdlib.exit 1
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Printf.printf "# pchls serve listening on %s:%d (threads=%d jobs=%d cache=%s)\n%!"
    config.host (port srv) config.threads config.jobs
    (if not config.cache then "off"
     else
       match config.cache_dir with
       | Some dir -> "memory+disk:" ^ dir
       | None -> "memory");
  if Option.is_some srv.flight then begin
    let path = Trace.install_sigusr1 () in
    Printf.printf
      "# flight recorder armed (%d events/shard); SIGUSR1 dumps to %s, \
       live at GET /debug/flight\n%!"
      config.flight_capacity path
  end;
  while not (Atomic.get stop_requested) do
    (try Thread.delay 0.1 with Unix.Unix_error (EINTR, _, _) -> ())
  done;
  Printf.printf "# pchls serve: draining (%d in flight)\n%!" (inflight srv);
  stop srv;
  Option.iter
    (fun store ->
      Format.printf "# cache: %a@." Store.pp_stats (Store.stats store))
    srv.cache;
  0
