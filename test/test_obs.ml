(* The observability layer: span nesting and ordering, the Chrome-trace
   JSON round-trip through the strict parser, histogram bucket semantics,
   domain-safety of counters under Pool.map, and the zero-observer
   guarantee (no sink => synthesis records no trace events). *)

module Trace = Pchls_obs.Trace
module Metrics = Pchls_obs.Metrics
module Json = Pchls_obs.Json
module Clock = Pchls_obs.Clock
module Event = Pchls_obs.Event
module Log = Pchls_obs.Log
module Pool = Pchls_par.Pool
module Engine = Pchls_core.Engine
module Explore = Pchls_core.Explore
module Store = Pchls_cache.Store
module Benchmarks = Pchls_dfg.Benchmarks
module Library = Pchls_fulib.Library
module Budget = Pchls_resil.Budget

let hal = Option.get (Benchmarks.find "hal")

let event_names sink =
  List.map (fun e -> e.Trace.name) (Trace.events sink)

(* --- clock --------------------------------------------------------------- *)

let test_clock_monotonic () =
  let rec go prev = function
    | 0 -> ()
    | n ->
      let t = Clock.now_ns () in
      Alcotest.(check bool) "strictly increasing" true (Int64.compare t prev > 0);
      go t (n - 1)
  in
  go (Clock.now_ns ()) 1000

(* Handler threads in lib/serve sample the clock concurrently; the CAS
   monotonizer must keep it strictly increasing per thread and globally
   collision-free even within one gettimeofday quantum. *)
let test_clock_monotonic_across_threads () =
  let threads = 4 and samples = 500 in
  let per_thread = Array.make threads [||] in
  let worker i () =
    per_thread.(i) <- Array.init samples (fun _ -> Clock.now_ns ())
  in
  let ths = Array.init threads (fun i -> Thread.create (worker i) ()) in
  Array.iter Thread.join ths;
  Array.iteri
    (fun i ts ->
      for j = 1 to samples - 1 do
        if Int64.compare ts.(j) ts.(j - 1) <= 0 then
          Alcotest.fail
            (Printf.sprintf "thread %d: sample %d not increasing" i j)
      done)
    per_thread;
  let all =
    Array.to_list per_thread |> List.concat_map Array.to_list
    |> List.sort_uniq Int64.compare
  in
  Alcotest.(check int)
    "no two threads ever observe the same tick" (threads * samples)
    (List.length all)

(* --- spans --------------------------------------------------------------- *)

let test_span_nesting_and_order () =
  let sink = Trace.make () in
  Trace.with_sink sink (fun () ->
      Trace.span "outer" (fun () ->
          Trace.span ~cat:"x" "first" (fun () -> ignore (Sys.opaque_identity 1));
          Trace.instant ~args:[ ("k", "v") ] "tick";
          Trace.span "second" (fun () -> ignore (Sys.opaque_identity 2))));
  (* [events] sorts parents before children: outer spans both inner ones. *)
  Alcotest.(check (list string))
    "parent first, then children in time order"
    [ "outer"; "first"; "tick"; "second" ]
    (event_names sink);
  Alcotest.(check int) "count" 4 (Trace.count sink);
  let by_name n =
    List.find (fun e -> e.Trace.name = n) (Trace.events sink)
  in
  let dur e =
    match e.Trace.phase with
    | Trace.Complete { dur_ns } -> dur_ns
    | Trace.Instant -> Alcotest.fail (e.Trace.name ^ ": expected a span")
  in
  let outer = by_name "outer" and first = by_name "first" in
  Alcotest.(check bool)
    "outer starts no later than first" true
    (Int64.compare outer.Trace.ts_ns first.Trace.ts_ns <= 0);
  Alcotest.(check bool)
    "outer contains first" true
    (Int64.compare
       (Int64.add outer.Trace.ts_ns (dur outer))
       (Int64.add first.Trace.ts_ns (dur first))
    >= 0);
  Alcotest.(check string) "cat recorded" "x" first.Trace.cat;
  Alcotest.(check (list (pair string string)))
    "instant args" [ ("k", "v") ]
    (by_name "tick").Trace.args

let test_span_records_on_raise () =
  let sink = Trace.make () in
  (try
     Trace.with_sink sink (fun () ->
         Trace.span "doomed" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check (list string)) "aborted span recorded" [ "doomed" ]
    (event_names sink);
  Alcotest.(check bool) "sink uninstalled on raise" false (Trace.observed ())

(* --- Chrome trace_event round-trip --------------------------------------- *)

let test_chrome_roundtrip () =
  let sink = Trace.make () in
  Trace.with_sink sink (fun () ->
      Trace.span ~cat:"engine" ~args:[ ("graph", "g\"1\n") ] "run" (fun () ->
          Trace.instant "mark"));
  let text = Trace.to_chrome sink in
  (match Json.parse text with
  | Error msg -> Alcotest.fail ("strict parse failed: " ^ msg)
  | Ok json -> (
    match Json.member "traceEvents" json with
    | Some (Json.List evs) ->
      Alcotest.(check int) "one element per event" (Trace.count sink)
        (List.length evs);
      let names =
        List.filter_map
          (fun ev ->
            match Json.member "name" ev with
            | Some (Json.String s) -> Some s
            | _ -> None)
          evs
      in
      Alcotest.(check (list string))
        "names survive (escaped args round-trip)" [ "run"; "mark" ] names
    | _ -> Alcotest.fail "no traceEvents array"));
  match Event.of_chrome text with
  | Ok evs ->
    Alcotest.(check int) "reader returns both events" 2 (List.length evs)
  | Error msg -> Alcotest.fail ("schema validation failed: " ^ msg)

let test_validate_rejects_garbage () =
  let reject text =
    match Event.of_chrome text with
    | Ok _ -> Alcotest.fail ("accepted: " ^ text)
    | Error _ -> ()
  in
  reject "";
  reject "[]";
  reject "{\"traceEvents\": 3}";
  reject "{\"traceEvents\": [{\"name\": \"x\"}]}";
  (* dur required for ph=X *)
  reject
    "{\"traceEvents\": [{\"name\": \"x\", \"cat\": \"c\", \"ph\": \"X\", \
     \"ts\": 0, \"pid\": 1, \"tid\": 0, \"args\": {}}]}";
  reject "{\"traceEvents\": []} trailing";
  (* Fields pchls always writes are required, not defaulted. *)
  reject
    "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"X\", \"ts\": 0, \
     \"dur\": 1, \"pid\": 0, \"tid\": 0}]}";
  reject
    "{\"traceEvents\": [{\"name\": \"x\", \"cat\": \"c\", \"ph\": \"i\", \
     \"ts\": 0, \"pid\": 0, \"tid\": 0}]}"

let test_metrics_json_parses () =
  Metrics.reset ();
  Metrics.incr (Metrics.counter "engine.backtracks");
  Metrics.observe (Metrics.histogram ~buckets:Metrics.ns_buckets "t_ns") 42.;
  match Json.parse (Metrics.to_json ()) with
  | Ok (Json.Obj fields) ->
    Alcotest.(check bool) "has engine.backtracks" true
      (List.mem_assoc "engine.backtracks" fields)
  | Ok _ -> Alcotest.fail "metrics JSON is not an object"
  | Error msg -> Alcotest.fail ("metrics JSON unparseable: " ^ msg)

(* --- the JSON writer ------------------------------------------------------ *)

let test_json_shortest_numbers () =
  let show f = Json.to_string (Json.Number f) in
  Alcotest.(check string) "27.2" "27.2" (show 27.2);
  Alcotest.(check string) "0.1" "0.1" (show 0.1);
  Alcotest.(check string) "1/3" "0.3333333333333333" (show (1. /. 3.))

(* Finite doubles from every corner: raw bit patterns, subnormals, values
   from 1e15 to 1e17 (where doubles turn integral), larger magnitudes, and
   short decimals. *)
let finite_double =
  QCheck.Gen.(
    oneof
      [
        map Int64.float_of_bits int64;
        map
          (fun b -> Int64.float_of_bits (Int64.logand b 0x800F_FFFF_FFFF_FFFFL))
          int64;
        float_range 1e15 1e17;
        (let* m = float_range 1. 10. in
         let* e = 17 -- 300 in
         return (m *. (10. ** float_of_int e)));
        map (fun n -> float_of_int n /. 10.) int;
      ])

let prop_json_numbers_round_trip =
  QCheck.Test.make ~name:"json numbers read back bit-identical" ~count:2000
    (QCheck.make finite_double ~print:(Printf.sprintf "%h"))
    (fun f ->
      QCheck.assume (Float.is_finite f);
      let text = Json.to_string (Json.Number f) in
      String.length text <= String.length (Printf.sprintf "%.17g" f)
      &&
      match Json.parse text with
      | Ok (Json.Number g) -> Int64.bits_of_float g = Int64.bits_of_float f
      | Ok _ | Error _ -> false)

(* Chrome documents carry microseconds; every nanosecond timestamp and
   duration, up to ~13 days, reads back unchanged. *)
let prop_chrome_timestamps_round_trip =
  QCheck.Test.make ~name:"chrome timestamps read back exactly" ~count:300
    QCheck.(pair (int_bound (1 lsl 50)) (int_bound (1 lsl 40)))
    (fun (ts, dur) ->
      let ev =
        {
          Event.name = "e";
          cat = "c";
          phase = Event.Complete { dur_ns = Int64.of_int dur };
          ts_ns = Int64.of_int ts;
          tid = 0;
          args = [];
        }
      in
      Event.of_chrome (Event.chrome_document [ ev ]) = Ok [ ev ])

(* --- histogram buckets --------------------------------------------------- *)

let test_histogram_bucket_boundaries () =
  Metrics.reset ();
  let h = Metrics.histogram ~buckets:[ 10.; 100. ] "obs_test.bounds" in
  (* v lands in the first bucket with v <= bound; past the last bound it
     overflows. *)
  List.iter (Metrics.observe h) [ 0.; 10.; 10.5; 100.; 100.1; 1e9 ];
  let snap =
    match List.assoc "obs_test.bounds" (Metrics.snapshot ()) with
    | Metrics.Histogram s -> s
    | _ -> Alcotest.fail "not a histogram"
  in
  Alcotest.(check (list int)) "per-bucket counts" [ 2; 2 ] snap.Metrics.counts;
  Alcotest.(check int) "overflow" 2 snap.Metrics.overflow;
  Alcotest.(check int) "total" 6 snap.Metrics.count;
  Alcotest.(check (float 1e-6)) "sum" 1000000220.6 snap.Metrics.sum

let test_metric_kind_mismatch () =
  Metrics.reset ();
  ignore (Metrics.counter "obs_test.kind");
  Alcotest.(check bool) "re-registering as histogram raises" true
    (match Metrics.histogram ~buckets:[ 1. ] "obs_test.kind" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- counters are domain-safe under Pool.map ----------------------------- *)

let prop_counter_domain_safe =
  QCheck.Test.make ~count:25
    ~name:"Pool.map increments never lose updates"
    QCheck.(list_of_size (Gen.int_range 0 50) (int_range 1 20))
    (fun increments ->
      let c = Metrics.counter "obs_test.concurrent" in
      let before = Metrics.counter_value c in
      Pool.with_pool ~jobs:4 (fun pool ->
          ignore
            (Pool.map pool
               (fun n ->
                 for _ = 1 to n do
                   Metrics.incr c
                 done;
                 n)
               increments));
      Metrics.counter_value c - before
      = List.fold_left ( + ) 0 increments)

(* --- bounded recorders (the flight ring) ---------------------------------- *)

let test_flight_ring_bounds () =
  let f = Trace.make ~capacity:8 () in
  Alcotest.(check bool) "not armed before with_sink" false (Trace.observed ());
  Trace.with_sink f (fun () ->
      Alcotest.(check bool) "armed inside" true (Trace.observed ());
      for i = 1 to 20 do
        Trace.instant (Printf.sprintf "ev%d" i)
      done);
  Alcotest.(check bool) "disarmed after" false (Trace.observed ());
  Alcotest.(check int) "every record counted" 20 (Trace.count f);
  Alcotest.(check int) "ring keeps only the newest" 8 (Trace.retained f);
  Alcotest.(check int) "the rest are accounted as dropped" 12
    (Trace.dropped f);
  let names = event_names f in
  Alcotest.(check (list string))
    "retained events are the most recent, in order"
    [ "ev13"; "ev14"; "ev15"; "ev16"; "ev17"; "ev18"; "ev19"; "ev20" ]
    names;
  List.iter
    (fun e ->
      Alcotest.(check bool) "timestamps relative to the recorder epoch" true
        (Int64.compare e.Event.ts_ns 0L >= 0))
    (Trace.events f);
  (* Domains recording one after another get consecutive ids and so
     distinct shards: each shard keeps its domain's newest [capacity]
     events and counts the rest as dropped. *)
  let f = Trace.make ~capacity:8 () in
  let recorded =
    Trace.with_sink f (fun () ->
        List.map
          (fun d ->
            Domain.join
              (Domain.spawn (fun () ->
                   let names =
                     List.init (4 + (6 * d)) (Printf.sprintf "d%d-%d" d)
                   in
                   List.iter (fun name -> Trace.instant name) names;
                   ((Domain.self () :> int), names))))
          [ 0; 1; 2; 3 ])
  in
  let newest names =
    List.filteri (fun i _ -> i >= List.length names - 8) names
  in
  List.iter
    (fun (tid, names) ->
      Alcotest.(check (list string))
        "each shard keeps its newest events" (newest names)
        (List.filter_map
           (fun e -> if e.Event.tid = tid then Some e.Event.name else None)
           (Trace.events f)))
    recorded;
  Alcotest.(check int) "four shards of at most eight" 28 (Trace.retained f);
  Alcotest.(check int) "the rest dropped" (2 + 8 + 14) (Trace.dropped f)

(* A ring with room for everything gives back exactly what an unbounded
   recorder does, field by field, for spans with and without args and for
   instants recorded from several pool domains at once. The recorders'
   epochs differ, so timestamps are compared from the first event. *)
let test_flight_ring_matches_unbounded () =
  let tasks = List.init 64 Fun.id in
  let sink = Trace.make () and ring = Trace.make ~capacity:256 () in
  Trace.with_sink sink (fun () ->
      Trace.with_sink ring (fun () ->
          Pool.with_pool ~jobs:4 (fun pool ->
              ignore
                (Pool.map pool
                   (fun i ->
                     Trace.span ~cat:"test"
                       ~args:[ ("i", string_of_int i); ("k", "v") ]
                       "with-args"
                       (fun () ->
                         Trace.span "bare" (fun () -> ());
                         Trace.instant ~args:[ ("i", string_of_int i) ] "tick"))
                   tasks))));
  let from_first r =
    match Trace.events r with
    | [] -> []
    | first :: _ as evs ->
      List.map
        (fun e ->
          { e with Event.ts_ns = Int64.sub e.Event.ts_ns first.Event.ts_ns })
        evs
  in
  let dur e =
    match e.Event.phase with
    | Event.Complete { dur_ns } -> Some dur_ns
    | Event.Instant -> None
  in
  let expected = from_first sink and actual = from_first ring in
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ring);
  Alcotest.(check int) "every event kept" (3 * List.length tasks)
    (List.length actual);
  Alcotest.(check int) "same events" (List.length expected) (List.length actual);
  List.iter2
    (fun e a ->
      Alcotest.(check string) "name" e.Event.name a.Event.name;
      Alcotest.(check string) "cat" e.Event.cat a.Event.cat;
      Alcotest.(check (option int64)) "phase and dur_ns" (dur e) (dur a);
      Alcotest.(check int64) "ts_ns" e.Event.ts_ns a.Event.ts_ns;
      Alcotest.(check int) "tid" e.Event.tid a.Event.tid;
      Alcotest.(check (list (pair string string)))
        "args" e.Event.args a.Event.args)
    expected actual

let test_flight_records_synthesis () =
  let f = Trace.make ~capacity:Trace.default_capacity () in
  (match
     Trace.with_sink f (fun () ->
         Alcotest.(check bool) "flight alone => observed" true
           (Trace.observed ());
         Engine.run ~library:Library.default ~time_limit:17 ~power_limit:10.
           hal)
   with
  | Engine.Synthesized _ -> ()
  | Engine.Infeasible { reason } -> Alcotest.fail reason);
  let names = event_names f in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " recorded in flight") true
        (List.mem expected names))
    [ "engine.run"; "engine.iterate"; "pasap.run"; "palap.run" ];
  match Event.of_chrome (Trace.to_chrome f) with
  | Ok evs ->
    Alcotest.(check int) "flight dump validates" (Trace.retained f)
      (List.length evs)
  | Error msg -> Alcotest.fail ("flight dump invalid: " ^ msg)

(* Runs [f] with the crash dump pointed at a temp file; returns [f]'s
   result and the dump's events. *)
let with_crash_file f =
  let path = Filename.temp_file "pchls_crash" ".json" in
  Trace.set_crash_path path;
  let result =
    Fun.protect
      ~finally:(fun () ->
        (* Restore the default so later tests (and crashes) don't write
           here. *)
        Trace.set_crash_path "pchls-flight-crash.json")
      f
  in
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Event.of_chrome text with
  | Ok evs -> (result, evs)
  | Error msg -> Alcotest.fail ("crash dump invalid: " ^ msg)

let test_flight_crash_dump () =
  let f = Trace.make ~capacity:64 () in
  let (), events =
    with_crash_file (fun () ->
        Trace.with_sink f (fun () ->
            Trace.instant "before-crash";
            Trace.note_crash ~origin:"test.crash" (Failure "boom")))
  in
  Alcotest.(check bool) "crash dump has events" true (List.length events >= 2);
  let crash =
    List.find (fun e -> e.Event.name = "flight.crash") events
  in
  Alcotest.(check (option string))
    "crash event names its origin" (Some "test.crash")
    (List.assoc_opt "origin" crash.Event.args);
  Alcotest.(check bool) "crash event carries the exception" true
    (match List.assoc_opt "exn" crash.Event.args with
    | Some s -> String.length s > 0
    | None -> false)

(* With an unbounded and a bounded recorder installed, the crash note
   lands in both, and the dump is the bounded one's events exactly. *)
let test_crash_with_two_recorders () =
  let sink = Trace.make () and ring = Trace.make ~capacity:64 () in
  let ring_events, dumped =
    with_crash_file (fun () ->
        Trace.with_sink sink (fun () ->
            Trace.instant "sink-only";
            Trace.with_sink ring (fun () ->
                Trace.instant "both";
                Trace.note_crash ~origin:"test.crash" (Failure "boom");
                Trace.events ring)))
  in
  Alcotest.(check (list string))
    "the sink saw everything" [ "sink-only"; "both"; "flight.crash" ]
    (event_names sink);
  Alcotest.(check (list string))
    "the ring saw what happened while it was installed"
    [ "both"; "flight.crash" ] (event_names ring);
  Alcotest.(check bool) "the crash file holds exactly the ring's events" true
    (dumped = ring_events)

(* pchls trace tree FILE.json renders a saved trace identically to the
   live renderer: to_chrome >> of_chrome >> Event.render_tree is the
   identity on the tree. *)
let test_offline_tree_roundtrip () =
  let sink = Trace.make () in
  Trace.with_sink sink (fun () ->
      Trace.span "outer" (fun () ->
          Trace.span ~cat:"x" "inner" (fun () ->
              Trace.instant ~args:[ ("k", "v") ] "tick")));
  let offline =
    match Event.of_chrome (Trace.to_chrome sink) with
    | Ok evs -> Event.render_tree evs
    | Error msg -> Alcotest.fail ("round-trip parse failed: " ^ msg)
  in
  Alcotest.(check string)
    "offline tree equals the live one" (Trace.render_tree sink) offline

(* --- zero-observer path -------------------------------------------------- *)

let test_no_sink_records_nothing () =
  Alcotest.(check bool) "nothing observes" false (Trace.observed ());
  let before = Trace.total_recorded () in
  (match
     Engine.run ~library:Library.default ~time_limit:17 ~power_limit:10. hal
   with
  | Engine.Synthesized _ -> ()
  | Engine.Infeasible { reason } -> Alcotest.fail reason);
  Alcotest.(check int)
    "an untraced synthesis allocates no trace events" before
    (Trace.total_recorded ())

(* --- Prometheus text exposition ------------------------------------------ *)

let test_prometheus_exposition () =
  Metrics.reset ();
  Metrics.incr ~by:3 (Metrics.counter "obs_test.prom_requests");
  Metrics.set (Metrics.gauge "obs_test.prom_inflight") 2.;
  let h = Metrics.histogram ~buckets:[ 10.; 100. ] "obs_test.prom_lat" in
  List.iter (Metrics.observe h) [ 5.; 50.; 500. ];
  let text = Metrics.to_prometheus () in
  (match Metrics.validate_prometheus text with
  | Ok n -> Alcotest.(check bool) "checker counts samples" true (n > 0)
  | Error msg -> Alcotest.fail ("own exposition rejected: " ^ msg));
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition contains " ^ needle) true (has needle))
    [
      "# TYPE pchls_obs_test_prom_requests_total counter";
      "pchls_obs_test_prom_requests_total 3";
      "# TYPE pchls_obs_test_prom_inflight gauge";
      "pchls_obs_test_prom_inflight 2";
      "# TYPE pchls_obs_test_prom_lat histogram";
      "pchls_obs_test_prom_lat_bucket{le=\"10\"} 1";
      "pchls_obs_test_prom_lat_bucket{le=\"100\"} 2";
      "pchls_obs_test_prom_lat_bucket{le=\"+Inf\"} 3";
      "pchls_obs_test_prom_lat_sum 555";
      "pchls_obs_test_prom_lat_count 3";
    ]

let test_prometheus_validator_rejects () =
  let reject text =
    match Metrics.validate_prometheus text with
    | Ok _ -> Alcotest.fail ("accepted: " ^ text)
    | Error _ -> ()
  in
  reject "1bad_name 3\n";
  reject "# TYPE x frobnicator\nx 1\n";
  reject "x{le=\"unterminated} 1\n";
  reject "x nan-ish\n";
  (* Cumulative buckets must be non-decreasing and end at +Inf. *)
  reject
    "# TYPE h histogram\n\
     h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n";
  reject "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n";
  (* _count must agree with the +Inf bucket. *)
  reject
    "# TYPE h histogram\n\
     h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n";
  match
    Metrics.validate_prometheus
      "# TYPE h histogram\n\
       h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 5\nh_sum 1.5\nh_count 5\n"
  with
  | Ok n -> Alcotest.(check int) "well-formed histogram accepted" 4 n
  | Error msg -> Alcotest.fail ("rejected well-formed histogram: " ^ msg)

let test_reset_zeroes_gauges () =
  let g = Metrics.gauge "obs_test.reset_gauge" in
  Metrics.set g 7.5;
  Alcotest.(check (float 0.)) "set" 7.5 (Metrics.gauge_value g);
  Metrics.reset ();
  Alcotest.(check (float 0.))
    "reset returns gauges to zero, not to their last value" 0.
    (Metrics.gauge_value g)

(* --- structured JSON-lines log ------------------------------------------- *)

let test_log_json_lines () =
  let path = Filename.temp_file "pchls_log" ".jsonl" in
  let log = Log.open_file path in
  Log.log log Log.Info
    ~fields:[ ("request_id", Json.String "r-1"); ("status", Json.Number 200.) ]
    "access";
  Log.log log Log.Error "boom";
  Log.close log;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "one line per call" 2 (List.length lines);
  let parsed =
    List.map
      (fun line ->
        match Json.parse line with
        | Ok (Json.Obj fields) -> fields
        | Ok _ -> Alcotest.fail "log line is not a JSON object"
        | Error msg -> Alcotest.fail ("log line unparseable: " ^ msg))
      lines
  in
  let first = List.nth parsed 0 and second = List.nth parsed 1 in
  Alcotest.(check bool) "every line has a ts" true
    (List.for_all (fun f -> List.mem_assoc "ts" f) parsed);
  Alcotest.(check (option string))
    "msg" (Some "access")
    (match List.assoc_opt "msg" first with
    | Some (Json.String s) -> Some s
    | _ -> None);
  Alcotest.(check (option string))
    "structured field survives" (Some "r-1")
    (match List.assoc_opt "request_id" first with
    | Some (Json.String s) -> Some s
    | _ -> None);
  Alcotest.(check (option string))
    "level rendered" (Some "error")
    (match List.assoc_opt "level" second with
    | Some (Json.String s) -> Some s
    | _ -> None)

(* --- integration: a traced cache-backed synthesis ------------------------ *)

let test_traced_synthesis_spans () =
  let sink = Trace.make () in
  let store = Store.in_memory () in
  (match
     Trace.with_sink sink (fun () ->
         Explore.solve ~library:Library.default ~cache:store hal
           ~time_limit:17 ~power_limit:10.)
   with
  | Explore.Feasible _ -> ()
  | Explore.Infeasible reason | Explore.Pruned reason | Explore.Failed reason
    ->
    Alcotest.fail reason);
  let names = event_names sink in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " span present") true
        (List.mem expected names))
    [
      "explore.point"; "cache.find"; "cache.add"; "engine.run";
      "engine.iterate"; "pasap.run"; "palap.run";
    ];
  match Event.of_chrome (Trace.to_chrome sink) with
  | Ok evs ->
    Alcotest.(check int) "full trace validates" (Trace.count sink)
      (List.length evs)
  | Error msg -> Alcotest.fail ("trace invalid: " ^ msg)

(* What an engine or cache decision leaves on the trace: the commit's
   placement, the decision a backtrack undid, the anytime wind-down, and
   which tier answered each cache lookup. *)
let test_decisions_on_the_trace () =
  let traced f =
    let sink = Trace.make () in
    let v = Trace.with_sink sink f in
    (v, Trace.events sink)
  in
  let instants name evs =
    List.filter_map
      (fun e -> if e.Trace.name = name then Some e.Trace.args else None)
      evs
  in
  let has keys args = List.for_all (fun k -> List.mem_assoc k args) keys in
  let outcome, evs =
    traced (fun () ->
        Engine.run ~library:Library.default ~time_limit:17 ~power_limit:10. hal)
  in
  let backtracks =
    match outcome with
    | Engine.Synthesized (_, st) -> st.Engine.backtracks
    | Engine.Infeasible { reason } -> Alcotest.fail reason
  in
  Alcotest.(check bool) "hal at T=17, P<=10 backtracks" true (backtracks > 0);
  let commits = instants "engine.commit" evs in
  Alcotest.(check bool) "commits recorded" true (commits <> []);
  List.iter
    (fun args ->
      Alcotest.(check bool) "commit names decision, op, start, module, gain"
        true
        (has [ "decision"; "op"; "start"; "module"; "gain" ] args))
    commits;
  let undone = instants "engine.backtrack" evs in
  Alcotest.(check int) "one instant per backtrack" backtracks
    (List.length undone);
  List.iter
    (fun args ->
      Alcotest.(check bool) "backtrack names the decision it undid" true
        (has [ "node"; "reason"; "op"; "start"; "module" ] args))
    undone;
  let store = Store.in_memory () in
  let (), evs =
    traced (fun () ->
        for _ = 1 to 2 do
          ignore
            (Explore.solve ~library:Library.default ~cache:store hal
               ~time_limit:17 ~power_limit:10.)
        done)
  in
  let lookups = instants "cache.outcome" evs in
  Alcotest.(check (list string))
    "first lookup misses, second hits memory" [ "miss"; "memory" ]
    (List.map (List.assoc "outcome") lookups);
  (match List.map (List.assoc "key") lookups with
  | [ a; b ] -> Alcotest.(check string) "both lookups name one key" a b
  | _ -> Alcotest.fail "two cache lookups expected");
  let outcome, evs =
    traced (fun () ->
        Engine.run ~deadline:(Budget.make ~max_iters:0 ())
          ~library:Library.default ~time_limit:17 ~power_limit:10. hal)
  in
  let forced =
    match outcome with
    | Engine.Synthesized
        (_, { Engine.completion = Engine.Deadline_exceeded { forced; _ }; _ })
      ->
      forced
    | Engine.Synthesized _ -> Alcotest.fail "max_iters:0 ran to completion"
    | Engine.Infeasible { reason } -> Alcotest.fail reason
  in
  match instants "engine.deadline" evs with
  | [ args ] ->
    Alcotest.(check (option string))
      "reason" (Some "iteration budget exhausted")
      (List.assoc_opt "reason" args);
    Alcotest.(check (option string))
      "forced" (Some (string_of_int forced))
      (List.assoc_opt "forced" args)
  | l ->
    Alcotest.failf "%d engine.deadline instants, expected 1" (List.length l)

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "monotonic across threads" `Quick
            test_clock_monotonic_across_threads;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and order" `Quick
            test_span_nesting_and_order;
          Alcotest.test_case "span survives raise" `Quick
            test_span_records_on_raise;
          Alcotest.test_case "chrome round-trip" `Quick test_chrome_roundtrip;
          Alcotest.test_case "validator rejects garbage" `Quick
            test_validate_rejects_garbage;
        ] );
      ( "json",
        [
          Alcotest.test_case "shortest numbers" `Quick test_json_shortest_numbers;
          QCheck_alcotest.to_alcotest prop_json_numbers_round_trip;
          QCheck_alcotest.to_alcotest prop_chrome_timestamps_round_trip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "json parses" `Quick test_metrics_json_parses;
          Alcotest.test_case "bucket boundaries" `Quick
            test_histogram_bucket_boundaries;
          Alcotest.test_case "kind mismatch" `Quick test_metric_kind_mismatch;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
          Alcotest.test_case "prometheus validator rejects" `Quick
            test_prometheus_validator_rejects;
          Alcotest.test_case "reset zeroes gauges" `Quick
            test_reset_zeroes_gauges;
          QCheck_alcotest.to_alcotest prop_counter_domain_safe;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring bounds and drop accounting" `Quick
            test_flight_ring_bounds;
          Alcotest.test_case "ring returns what it recorded" `Quick
            test_flight_ring_matches_unbounded;
          Alcotest.test_case "records a synthesis" `Quick
            test_flight_records_synthesis;
          Alcotest.test_case "crash dump" `Quick test_flight_crash_dump;
          Alcotest.test_case "crash with two recorders" `Quick
            test_crash_with_two_recorders;
          Alcotest.test_case "offline tree round-trip" `Quick
            test_offline_tree_roundtrip;
        ] );
      ( "log",
        [
          Alcotest.test_case "json lines" `Quick test_log_json_lines;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "zero-observer allocates nothing" `Quick
            test_no_sink_records_nothing;
          Alcotest.test_case "traced cache-backed synthesis" `Quick
            test_traced_synthesis_spans;
          Alcotest.test_case "decisions on the trace" `Quick
            test_decisions_on_the_trace;
        ] );
    ]
