(* synth-1k: one Engine.run on the ~1k-node graph of the scaling-engine-1k
   leg, T = 2 * critical path + n/4 and P< = 40. The schedulers and
   candidate selection do almost all the work; pool, cache, preflight and
   serve do none.

   The graph is Generator.sized ~seed:2 ~max_nodes:1000 whatever the
   workload seed: engine time on random 1k-node graphs varies 5-21 s with
   the graph (a backtrack early or late in the run locks every op and
   changes the scheduler work), which no run length can average out. *)

open Common
module Graph = Pchls_dfg.Graph
module Generator = Pchls_dfg.Generator
module Library = Pchls_fulib.Library
module Module_spec = Pchls_fulib.Module_spec
module Engine = Pchls_core.Engine
module Design = Pchls_core.Design
module Preflight = Pchls_preflight.Preflight
module Trace = Pchls_obs.Trace

let power_limit = 40.

let setup () =
  let g = Generator.sized ~seed:2 ~max_nodes:1000 () in
  let latency id =
    match Library.min_power Verify.library (Graph.kind g id) with
    | Some m -> m.Module_spec.latency
    | None -> invalid_arg "synth-1k: library does not cover the graph"
  in
  let time_limit = (2 * Graph.critical_path g ~latency) + (Graph.node_count g / 4) in
  (g, time_limit)

let synthesize (g, time_limit) =
  timed (fun () ->
      Engine.run ~library:Verify.library ~time_limit ~power_limit g)

(* Every check of one synthesis: the requested limits, the lints, the
   Design.assemble round trip, and the preflight bounds, which must not
   call an instance with a design infeasible. *)
let check (g, time_limit) tally quality outcome =
  attempt tally;
  account tally
    (match outcome with
    | Engine.Infeasible _ -> Error "infeasible"
    | Engine.Synthesized (d, _) ->
      let ( let* ) = Result.bind in
      let* () = Verify.design ~time_limit ~power_limit d in
      let* rebuilt =
        Verify.reassemble ~graph:g ~time_limit ~power_limit
          (Verify.instances_of d)
        |> Result.map_error (fun _ -> "design does not reassemble")
      in
      let digest = Verify.digest d in
      let* () =
        if Verify.digest rebuilt = digest then Ok ()
        else Error "reassembled design differs"
      in
      let bounds =
        Trace.span ~cat:"bench" "preflight.analyze" (fun () ->
            Preflight.analyze ~library:Verify.library ~time_limit ~power_limit g)
      in
      let* () =
        if Preflight.infeasible bounds then
          Error "preflight certifies a synthesized instance infeasible"
        else Ok ()
      in
      record_answer quality ~key:"synth-1k"
        (Feasible { area = (Design.area d).Design.total; digest }))

let run cfg =
  let tally = tally () and quality = quality () in
  let input, setup_s = repeat_median 11 setup in
  if not cfg.trace then begin
    let t0 = now_ns () in
    let outcome, first = synthesize input in
    (* The peak of a process that synthesized once, as `pchls synth` is. *)
    let rss = peak_rss_mb None in
    check input tally quality outcome;
    let rec loop walls =
      if seconds_since t0 >= cfg.seconds then walls
      else
        let outcome, wall = synthesize input in
        check input tally quality outcome;
        loop (wall :: walls)
    in
    let walls = loop [ first ] in
    ( tally,
      quality,
      [
        ("setup_s", setup_s);
        ("ops_per_s", float_of_int (List.length walls) /. sum walls);
        ("latency_p50_ms", 1e3 *. median walls);
        ("area_sum", area_sum quality);
        ("feasible_count", float_of_int (feasible_count quality));
        ("peak_rss_mb", rss);
      ] )
  end
  else begin
    let (), split =
      Layers.alternate ~seconds:cfg.seconds ~jobs:1 (fun ~traced:_ ->
          let outcome, wall = synthesize input in
          check input tally quality outcome;
          ((), wall))
    in
    let layers = Layers.metrics split in
    (* The layer split must account for the engine's time. *)
    let coverage = List.assoc "engine.layer_coverage" layers in
    if coverage < 0.95 then fail tally "layer self times cover under 95% of engine.run";
    (tally, quality, layers)
  end
