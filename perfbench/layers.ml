(* The per-layer split of one traced run. Span-derived metrics come from
   {!Spans}; counters and histogram sums are deltas of the Metrics registry
   (in-process, or the daemon's GET /metrics) across the traced phase. *)

module Json = Pchls_obs.Json
module Trace = Pchls_obs.Trace

type input = {
  spans : Spans.span list;
  before : Json.t;  (** registry snapshot when the traced phase starts *)
  after : Json.t;  (** ... and when it ends *)
  wall_s : float;  (** traced phase wall time *)
  jobs : int;  (** pool domains doing the work *)
  grid_points : int;  (** sweep grid points evaluated, for the prune ratio *)
  pruned : int;
  request_ms : float list;  (** server-side request durations (access log) *)
  queue_ms : float list;  (** admission waits (access log) *)
  overhead_ratio : float;  (** traced / untraced end-to-end time *)
}

let registry () =
  match Json.parse (Pchls_obs.Metrics.to_json ()) with
  | Ok j -> j
  | Error e -> failwith ("Metrics.to_json: " ^ e)

(* The traced phase of an in-process workload: one untraced warm-up
   operation, then a traced and an untraced operation in turn until
   [seconds] are spent, so both sides run in an equally warm process. [op
   ~traced] runs one operation and returns its result and timed wall
   seconds. The split comes from the last traced operation, whose result
   is returned with it. *)
let alternate ~seconds ~jobs op =
  let t0 = Common.now_ns () in
  ignore (op ~traced:false);
  let rec go traced untraced =
    let sink = Trace.make () in
    let before = registry () in
    let last, t = Trace.with_sink sink (fun () -> op ~traced:true) in
    let after = registry () in
    let _, u = op ~traced:false in
    let traced = t :: traced and untraced = u :: untraced in
    if Common.seconds_since t0 < seconds then go traced untraced
    else
      ( last,
        {
          spans = Spans.of_events (Trace.events sink);
          before;
          after;
          wall_s = t;
          jobs;
          grid_points = 0;
          pruned = 0;
          request_ms = [];
          queue_ms = [];
          overhead_ratio = Common.median traced /. Common.median untraced;
        } )
  in
  go [] []

let number = function Some (Json.Number f) -> f | _ -> 0.

(* A counter's value, or a histogram's [field]. *)
let read ?field json name =
  match (Json.member name json, field) with
  | Some (Json.Obj _ as h), Some f -> number (Json.member f h)
  | v, None -> number v
  | _, Some _ -> 0.

let delta i ?field name = read ?field i.after name -. read ?field i.before name

let ratio a b = if b > 0. then a /. b else 0.

let metrics i =
  let stat = Spans.summarize i.spans in
  let self n = (stat n).Spans.self_s and total n = (stat n).Spans.total_s in
  let count n = float_of_int (stat n).Spans.count in
  (* A cache hit is a grid point that looked the key up and stored
     nothing: its own time, beyond the lookup, is Design.assemble. *)
  let hit_assemble_s =
    List.fold_left
      (fun acc (s : Spans.span) ->
        if
          s.Spans.name = "explore.point"
          && List.mem "cache.find" s.Spans.children
          && not (List.mem "cache.add" s.Spans.children)
        then acc +. (Int64.to_float (Spans.self_ns s) /. 1e9)
        else acc)
      0. i.spans
  in
  let point_ns = Spans.durations i.spans "explore.point" in
  let find_ns = Spans.durations i.spans "cache.find" in
  let hits = delta i "cache.hit" and misses = delta i "cache.miss" in
  let run_ns = delta i ~field:"sum" "pool.task_run_ns" in
  [
    ("pasap.run.count", count "pasap.run");
    ("pasap.run.self_s", self "pasap.run");
    ("pasap.run.mean_ms", 1e3 *. ratio (total "pasap.run") (count "pasap.run"));
    ("palap.run.count", count "palap.run");
    ("palap.run.self_s", self "palap.run");
    ("pasap.offset_delays", delta i "pasap.offset_delays");
    ("engine.run.count", count "engine.run");
    ("engine.run.total_s", total "engine.run");
    ("engine.iterate.count", count "engine.iterate");
    ("engine.iterate.self_s", self "engine.iterate");
    ( "engine.layer_coverage",
      ratio
        (self "engine.iterate" +. self "pasap.run" +. self "palap.run")
        (total "engine.run") );
    ("engine.iterations", delta i "engine.iterations");
    ("engine.backtracks", delta i "engine.backtracks");
    ("engine.merges", delta i "engine.merges");
    ("engine.retype_merges", delta i "engine.retype_merges");
    ("engine.new_instances", delta i "engine.new_instances");
    ("engine.default_upgrades", delta i "engine.default_upgrades");
    ("clique.gain_evaluated", delta i "clique.gain_evaluated");
    ("design.assemble.total_s", total "design.assemble" +. hit_assemble_s);
    ("analysis.run_all.total_s", total "analysis.run_all");
    ("preflight.analyze.total_s", total "preflight.analyze");
    ("explore.points", delta i "explore.points");
    ("explore.point_ns.p50", Common.percentile 0.5 point_ns);
    ("explore.point_ns.p90", Common.percentile 0.9 point_ns);
    ("preflight.pruned", float_of_int i.pruned);
    ( "preflight.prune_ratio",
      ratio (float_of_int i.pruned) (float_of_int i.grid_points) );
    ("pool.tasks", delta i "pool.tasks");
    ("pool.task_wait_ns.sum", delta i ~field:"sum" "pool.task_wait_ns");
    ("pool.task_run_ns.sum", run_ns);
    ("pool.busy_ratio", ratio run_ns (i.wall_s *. 1e9 *. float_of_int i.jobs));
    ("cache.miss", misses);
    ("cache.store", delta i "cache.store");
    ("cache.add.total_s", total "cache.add");
    ("cache.hit", hits);
    ("cache.hit_ratio", ratio hits (hits +. misses));
    ("cache.evictions", delta i "cache.evictions");
    ("cache.memory_lookup_ns.p50", Common.percentile 0.5 find_ns);
    ("cache.find.total_s", total "cache.find");
    ("serve.requests", delta i "serve.requests");
    ("serve.request_ns.p50", 1e6 *. Common.percentile 0.5 i.request_ms);
    ("serve.request_ns.p99", 1e6 *. Common.percentile 0.99 i.request_ms);
    ( "serve.request.self_s",
      Float.max 0. (total "serve.request" -. total "explore.point") );
    ("serve.coalesced", delta i "serve.coalesced");
    ("admission.queue_ms.p50", Common.percentile 0.5 i.queue_ms);
    ("admission.queue_ms.p99", Common.percentile 0.99 i.queue_ms);
    ("trace.overhead_ratio", i.overhead_ratio);
  ]
