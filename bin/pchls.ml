(* Command-line driver for the pchls library: synthesize benchmark CDFGs
   under time and power constraints, sweep the design space, inspect power
   profiles, estimate battery lifetimes and emit RTL. *)

module Graph = Pchls_dfg.Graph
module Benchmarks = Pchls_dfg.Benchmarks
module Dot = Pchls_dfg.Dot
module Library = Pchls_fulib.Library
module Profile = Pchls_power.Profile
module Schedule = Pchls_sched.Schedule
module Engine = Pchls_core.Engine
module Design = Pchls_core.Design
module Cost_model = Pchls_core.Cost_model
module Model = Pchls_battery.Model
module Sim = Pchls_battery.Sim
module Netlist = Pchls_rtl.Netlist
module Diag = Pchls_diag.Diag
module Analysis = Pchls_analysis.Analysis
module Preflight = Pchls_preflight.Preflight
module Explore = Pchls_core.Explore
module Store = Pchls_cache.Store
module Trace = Pchls_obs.Trace
module Metrics = Pchls_obs.Metrics
module Style = Pchls_obs.Style
module Event = Pchls_obs.Event
module Json = Pchls_obs.Json
module Budget = Pchls_resil.Budget
module Request = Pchls_serve.Request
module Server = Pchls_serve.Server

open Cmdliner

(* --- shared arguments -------------------------------------------------- *)

(* A converter that also applies one of the validators the server shares
   ({!Request}): an out-of-range value is an argument error naming its
   option (exit 124), where the server answers 400. *)
let checked conv validate =
  let parse s =
    Result.bind (Arg.conv_parser conv s) (fun v ->
        Result.map_error (fun msg -> `Msg msg) (validate v))
  in
  Arg.conv (parse, Arg.conv_printer conv)

let time_conv = checked Arg.int Request.time_limit

(* Ranges of the CLI-only options (--width, --max-nodes, --capacity). *)
let at_least_one n =
  if n >= 1 then Ok n else Error (Printf.sprintf "must be >= 1, got %d" n)

(* Written so that NaN is refused too. *)
let finite_positive x =
  if x > 0. && Float.is_finite x then Ok x
  else Error (Printf.sprintf "must be finite and > 0, got %g" x)

let benchmark_opt =
  Arg.(
    value
    & opt
        (some
           (checked string (fun name -> Result.map fst (Request.benchmark name))))
        None
    & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"Benchmark CDFG to use.")

let file_opt =
  Arg.(
    value
    & opt (some file) None
    & info [ "file" ] ~docv:"PATH"
        ~doc:"Read the CDFG from a text-format file instead (see \
              Pchls_dfg.Text_format).")

let beh_opt =
  Arg.(
    value
    & opt (some file) None
    & info [ "beh" ] ~docv:"PATH"
        ~doc:"Compile the CDFG from a behavioural program instead (see \
              Pchls_lang).")

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A bundled benchmark, a CDFG text file, or a behavioural program; exactly
   one must be given. *)
let graph_source =
  let resolve bench file beh =
    let source path make = Option.map (fun p -> make p (read_file p)) path in
    Request.graph ~missing:"a CDFG is required: -b NAME, --file or --beh"
      ~conflict:"pass exactly one of -b, --file, --beh"
      (List.filter_map Fun.id
         [
           Option.map (fun name -> Request.Benchmark name) bench;
           source file (fun origin text -> Request.Dfg { origin; text });
           source beh (fun origin text ->
               let name = Filename.remove_extension (Filename.basename origin) in
               Request.Beh { origin; name; text });
         ])
  in
  Term.(term_result' (const resolve $ benchmark_opt $ file_opt $ beh_opt))

let time_arg value_conv =
  Arg.(
    required
    & opt (some value_conv) None
    & info [ "t"; "time" ] ~docv:"CYCLES" ~doc:"Latency constraint in cycles.")

let power_arg value_conv =
  Arg.(
    value
    & opt value_conv infinity
    & info [ "p"; "power" ] ~docv:"P"
        ~doc:"Maximum power per clock cycle (default: unconstrained).")

let time_limit = time_arg time_conv
let power_limit = power_arg (checked Arg.float Request.power_limit)

let policy =
  Arg.(
    value
    & opt (enum Request.policies) Engine.Min_power
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Default module selection: min-power, min-area or min-latency.")

let cost_model =
  let register_area =
    Arg.(
      value
      & opt float Cost_model.default.Cost_model.register_area
      & info [ "reg-area" ] ~docv:"AREA" ~doc:"Area of one register.")
  in
  let mux_input_area =
    Arg.(
      value
      & opt float Cost_model.default.Cost_model.mux_input_area
      & info [ "mux-area" ] ~docv:"AREA"
          ~doc:"Area per extra multiplexer input.")
  in
  let make register_area mux_input_area =
    Cost_model.make ~register_area ~mux_input_area
  in
  Term.(term_result' (const make $ register_area $ mux_input_area))

(* One synthesis point, as every single-point command takes it. *)
type request = {
  name : string;
  graph : Graph.t;
  time_limit : int;
  power_limit : float;
  policy : Engine.policy;
  cost_model : Cost_model.t;
}

let request =
  let make (name, graph) time_limit power_limit policy cost_model =
    { name; graph; time_limit; power_limit; policy; cost_model }
  in
  Term.(
    const make $ graph_source $ time_limit $ power_limit $ policy $ cost_model)

(* Optional user FU library (text format); defaults to the paper's Table 1. *)
let library_opt =
  let library_conv =
    let parse path =
      match Pchls_fulib.Text_format.of_string (read_file path) with
      | Ok lib -> Ok lib
      | Error msg -> Error (`Msg (Printf.sprintf "%s: %s" path msg))
    in
    let print ppf _ = Format.pp_print_string ppf "<library>" in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt (some library_conv) None
    & info [ "library" ] ~docv:"PATH"
        ~doc:"Read the FU library from a text-format file (default: the \
              paper's Table 1; see Pchls_fulib.Text_format).")

let the_library = function Some lib -> lib | None -> Library.default

(* --- observability options (trace + metrics + color) -------------------- *)

let trace_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.json"
        ~doc:"Write a Chrome trace_event JSON profile of the run to $(docv) \
              (load it in Perfetto or chrome://tracing; validate it with \
              $(b,pchls trace validate)).")

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the metrics registry (counters, histograms) after the \
              run.")

let flight_flag =
  Arg.(
    value & flag
    & info [ "flight" ]
        ~doc:"Arm the in-memory flight recorder for the run: recent \
              span/instant events are retained in a bounded ring, dumped \
              as Chrome trace_event JSON on crash paths and on SIGUSR1 \
              ($(b,pchls flight dump PID)).")

let no_color_flag =
  Arg.(
    value & flag
    & info [ "no-color" ]
        ~doc:"Disable ANSI colors (equivalent to setting PCHLS_NO_COLOR or \
              NO_COLOR).")

let apply_color no_color = if no_color then Style.set_enabled (Some false)

let write_trace sink path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Trace.to_chrome sink));
  Format.printf "# trace: %d events -> %s@." (Trace.count sink) path

(* Wraps a command body: installs an unbounded recorder when --trace was
   given and writes its Chrome JSON afterwards; installs a bounded flight
   ring (plus its SIGUSR1 dump handler) when --flight was given; dumps the
   metrics registry when --metrics was given. The body's exit code passes
   through. *)
let with_obs ?(flight = false) ~trace ~metrics f =
  let traced () =
    match trace with
    | None -> f ()
    | Some path ->
      let sink = Trace.make () in
      let code = Trace.with_sink sink f in
      write_trace sink path;
      code
  in
  let code =
    if not flight then traced ()
    else begin
      let ring = Trace.make ~capacity:Trace.default_capacity () in
      let path = Trace.install_sigusr1 () in
      Format.eprintf
        "# flight: armed (%d events/shard); kill -USR1 %d dumps to %s@."
        Trace.default_capacity (Unix.getpid ()) path;
      Trace.with_sink ring traced
    end
  in
  if metrics then print_string (Metrics.dump ());
  code

let err_infeasible name reason =
  Format.eprintf "%s: %s: %s@." name (Style.red "infeasible") reason

(* --- budget options (deadline + iteration cap) -------------------------- *)

let budget =
  let deadline_ms =
    Arg.(
      value
      & opt (some (checked float Request.deadline_ms)) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Wall-clock budget in milliseconds. When it expires the run \
                stops at the next safe point and reports the best partial \
                (anytime) result found so far, exiting 3 instead of hanging.")
  in
  let max_iters =
    Arg.(
      value
      & opt (some (checked int Request.max_iters)) None
      & info [ "max-iters" ] ~docv:"N"
          ~doc:"Engine iteration budget (move-and-commit steps). Like \
                $(b,--deadline-ms), expiry yields a partial result and exit \
                code 3.")
  in
  let make deadline_ms max_iters = Request.budget ?deadline_ms ?max_iters () in
  Term.(const make $ deadline_ms $ max_iters)

(* Budgeted commands end through here: an exhausted budget downgrades the
   run to a partial (anytime) result, reported with exit code 3 so scripts
   can tell "finished" from "ran out of budget". Usage/internal errors (2)
   stay errors. *)
let finish ?budget code =
  match budget with
  | Some b when code <> 2 -> (
    match Budget.check b with
    | Some reason ->
      Format.printf "# deadline: partial results (%s)@."
        (Budget.reason_to_string reason);
      3
    | None -> code)
  | _ -> code

let budget_exits =
  Cmd.Exit.info 1 ~doc:"on an infeasible instance or a failing check."
  :: Cmd.Exit.info 3
       ~doc:"when the $(b,--deadline-ms) / $(b,--max-iters) budget expired \
             and only a partial (anytime) result was reported."
  :: Cmd.Exit.defaults

(* --- exploration options (pool + cache) -------------------------------- *)

let jobs_opt =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains used to synthesize grid points in parallel \
              (default: the number of cores). Results are identical to a \
              sequential run.")

let cache_dir_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Persist synthesis results in a content-addressed cache under \
              $(docv); identical (graph, library, cost model, policy, T, \
              P<) configurations are then never re-synthesized, even \
              across runs.")

let no_cache_flag =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Disable result caching entirely (also ignores --cache-dir).")

(* Sweeps default to an in-memory cache (gives hit/miss statistics and
   deduplicates repeated grid points); --cache-dir adds the disk tier and
   --no-cache turns the whole thing off. *)
let sweep_store no_cache cache_dir =
  if no_cache then None else Some (Store.create ?dir:cache_dir ())

(* Single-point commands only cache when asked to persist. *)
let synth_store no_cache cache_dir =
  if no_cache then None
  else Option.map (fun dir -> Store.create ~dir ()) cache_dir

let print_cache_line ~jobs = function
  | None -> ()
  | Some store ->
    Format.printf "# jobs=%d cache: %a@." jobs Store.pp_stats
      (Store.stats store)

let synthesize ?(library = Library.default) ?self_check ?deadline r =
  match
    Engine.run ~cost_model:r.cost_model ~policy:r.policy ?self_check ?deadline
      ~library ~time_limit:r.time_limit ~power_limit:r.power_limit r.graph
  with
  | Engine.Synthesized (d, stats) -> Ok (d, stats)
  | Engine.Infeasible { reason } -> Error reason

(* The single-point commands other than synth: synthesize, then hand the
   design to [f]; an infeasible instance reports its reason and exits 1. *)
let with_design ?library r f =
  match synthesize ?library r with
  | Ok (d, _) -> f d
  | Error reason ->
    err_infeasible r.name reason;
    1

(* Shared by synth / sweep / pareto: consult the static bound analysis
   before running the engine so provably-infeasible points are rejected
   (or, in sweeps, pruned) without synthesis. *)
let preflight_flag =
  Arg.(
    value & flag
    & info [ "preflight" ]
        ~doc:"Run the static bound analysis first and reject (sweeps: \
              prune, shown as \xe2\x88\x85) grid points that carry an \
              infeasibility certificate without running the engine.")

(* --- list -------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Format.printf "%-12s %6s %6s %s@." "benchmark" "nodes" "edges" "kinds";
    List.iter
      (fun (name, g) ->
        let kinds =
          Graph.kind_counts g
          |> List.map (fun (k, n) ->
                 Printf.sprintf "%s:%d" (Pchls_dfg.Op.to_string k) n)
          |> String.concat " "
        in
        Format.printf "%-12s %6d %6d %s@." name (Graph.node_count g)
          (Graph.edge_count g) kinds)
      Benchmarks.all;
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the bundled benchmark CDFGs.")
    Term.(const run $ const ())

(* --- synth ------------------------------------------------------------- *)

let gantt_flag =
  Arg.(value & flag & info [ "gantt" ] ~doc:"Also print a Gantt chart.")

let tighten_flag =
  Arg.(
    value & flag
    & info [ "tighten" ]
        ~doc:"Refine area by retrying under tightened power budgets.")

let rebind_flag =
  Arg.(
    value & flag
    & info [ "rebind" ]
        ~doc:"Run the post-synthesis rebinding improvement pass.")

let self_check_flag =
  Arg.(
    value & flag
    & info [ "self-check" ]
        ~doc:"Re-lint the engine's schedule after every backtrack-and-lock \
              event and run every Pchls_analysis checker over the final \
              design; any error diagnostic fails the run.")

let synth_cmd =
  let run r library gantt tighten rebind self_check preflight cache_dir
      no_cache budget trace metrics flight =
    with_obs ~flight ~trace ~metrics @@ fun () ->
    let library = the_library library in
    let cache = synth_store no_cache cache_dir in
    let budget = Request.start budget in
    let { graph = g; time_limit; power_limit; policy; cost_model; _ } = r in
    let outcome =
      if tighten then
        Explore.tighten ~cost_model ~policy ?cache ?deadline:budget ~library g
          ~time_limit ~power_limit
        |> Result.map (fun d -> (d, None))
      else if Option.is_some cache then
        (* Cached single-point synthesis goes through Explore so hits skip
           the engine; engine stats are not available on a hit. *)
        match
          Explore.solve ~cost_model ~policy ?deadline:budget ~preflight
            ~library ?cache g ~time_limit ~power_limit
        with
        | Explore.Feasible { design; _ } -> Ok (design, None)
        | Explore.Infeasible reason | Explore.Pruned reason
        | Explore.Failed reason ->
          Error reason
      else
        match
          if preflight then
            Explore.certificate ~library g ~time_limit ~power_limit
          else None
        with
        | Some reason -> Error reason
        | None ->
          synthesize ~library ~self_check ?deadline:budget r
          |> Result.map (fun (d, stats) -> (d, Some stats))
    in
    (match cache with
    | Some store -> Format.printf "# cache: %a@." Store.pp_stats (Store.stats store)
    | None -> ());
    finish ?budget
    @@
    match outcome with
    | Ok (d, stats) ->
      let d = if rebind then Pchls_core.Improve.rebind ~cost_model d else d in
      Format.printf "%a@." Design.pp d;
      (match stats with
      | Some stats -> Format.printf "stats: %a@." Engine.pp_stats stats
      | None -> ());
      if gantt then Format.printf "@.%s@." (Pchls_core.Gantt.render d);
      if self_check then begin
        let ds = Analysis.run_all ~library d in
        List.iter (fun diag -> Format.eprintf "%a@." Diag.pp diag) ds;
        if Diag.has_errors ds then begin
          Format.eprintf "%s: self-check failed: %s@." r.name
            (Analysis.summary ds);
          1
        end
        else begin
          Format.printf "self-check: %s@." (Analysis.summary ds);
          0
        end
      end
      else 0
    | Error reason ->
      err_infeasible r.name reason;
      1
  in
  Cmd.v
    (Cmd.info "synth" ~exits:budget_exits
       ~doc:"Synthesize a benchmark under (T, P) constraints.")
    Term.(
      const run $ request $ library_opt $ gantt_flag $ tighten_flag
      $ rebind_flag $ self_check_flag $ preflight_flag $ cache_dir_opt
      $ no_cache_flag $ budget $ trace_opt $ metrics_flag $ flight_flag)

(* --- check ------------------------------------------------------------- *)

(* A diagnostic line, colored by severity when stdout allows it. *)
let print_diag diag =
  let line = Format.asprintf "%a" Diag.pp diag in
  print_endline
    (match diag.Diag.severity with
    | Diag.Error -> Style.red line
    | Diag.Warning -> Style.yellow line
    | Diag.Info -> Style.cyan line)

let check_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit diagnostics as a JSON array instead of text.")
  in
  let timings_flag =
    Arg.(
      value & flag
      & info [ "timings" ]
          ~doc:"Also report per-checker wall time (with --json: wraps the \
                diagnostics in an object with a timings_ns field).")
  in
  let bounds_flag =
    Arg.(
      value & flag
      & info [ "bounds" ]
          ~doc:"Also report the static preflight bounds (latency, power \
                demand, energy, FU area) as a PRE005 informational \
                diagnostic.")
  in
  let run r library json timings bounds no_color =
    apply_color no_color;
    let library = the_library library in
    with_design ~library r @@ fun d ->
    let ds, times = Analysis.run_all_timed ~library d in
    let ds =
      if bounds then
        ds
        @ [
            Preflight.summary_diag
              (Preflight.analyze ~library ~time_limit:r.time_limit
                 ~power_limit:r.power_limit r.graph);
          ]
      else ds
    in
    if json then
      print_endline
        (Json.to_string
           (if timings then
              Json.Obj
                [
                  ("diagnostics", Diag.list_to_json ds);
                  ( "timings_ns",
                    Json.Obj
                      (List.map (fun (pass, ns) -> (pass, Json.Number ns)) times) );
                ]
            else Diag.list_to_json ds))
    else begin
      List.iter print_diag ds;
      if timings then
        List.iter
          (fun (pass, ns) ->
            Format.printf "%s@."
              (Style.dim (Printf.sprintf "# check.%-8s %8.0f ns" pass ns)))
          times;
      Format.printf "%s (T=%d, P<=%g): %s@." r.name r.time_limit r.power_limit
        (Analysis.summary ds)
    end;
    if Diag.has_errors ds then 1 else 0
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Synthesize, then statically verify every layer of the result \
             (DFG, schedule, binding, registers, netlist) and report \
             machine-readable diagnostics. Exits 1 when any error-severity \
             diagnostic fires.")
    Term.(
      const run $ request $ library_opt $ json_flag $ timings_flag
      $ bounds_flag $ no_color_flag)

(* --- preflight ---------------------------------------------------------- *)

let preflight_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the bounds and certificates as one JSON object.")
  in
  let exact_max =
    Arg.(
      value
      & opt int Preflight.default_exact_max_vertices
      & info [ "exact-max" ] ~docv:"N"
          ~doc:"Largest graph (in operations) priced with the exact \
                clique-search area bound; larger graphs use the interval \
                relaxation. 0 disables the exact search.")
  in
  let run (name, g) t p library exact_max json no_color =
    apply_color no_color;
    match
      if t > Request.max_time_limit then
        invalid_arg
          (Printf.sprintf "-t must be <= %d, got %d" Request.max_time_limit t);
      Preflight.analyze ~exact_max_vertices:exact_max
        ~library:(the_library library) ~time_limit:t ~power_limit:p g
    with
    | exception Invalid_argument msg ->
      Format.eprintf "%s: %s@." name msg;
      2
    | r ->
      if json then print_endline (Json.to_string (Preflight.to_json r))
      else print_string (Preflight.render r);
      if Preflight.infeasible r then 1 else 0
  in
  Cmd.v
    (Cmd.info "preflight"
       ~exits:
         (Cmd.Exit.info 1
            ~doc:"when the instance is provably infeasible (a certificate \
                  was emitted)."
         :: Cmd.Exit.defaults)
       ~doc:"Statically bound an instance without running the engine: \
             latency lower bound with a critical-path witness, per-cycle \
             power-demand lower bounds, energy capacity and functional-unit \
             area bounds. Emits a machine-checkable infeasibility \
             certificate (PRE001-PRE004) and exits 1 when the bounds \
             contradict the (T, P<) constraints.")
    (* Unchecked T and P<: Preflight.analyze rejects them itself, and [run]
       a T past the request cap (exit 2). *)
    Term.(
      const run $ graph_source $ time_arg Arg.int $ power_arg Arg.float
      $ library_opt $ exact_max $ json_flag $ no_color_flag)

(* --- sweep / pareto ------------------------------------------------------ *)

let power_range =
  let p_from =
    Arg.(value & opt float 2.5 & info [ "p-from" ] ~docv:"P" ~doc:"Sweep start.")
  in
  let p_to =
    Arg.(value & opt float 150. & info [ "p-to" ] ~docv:"P" ~doc:"Sweep end.")
  in
  let p_step =
    Arg.(
      value & opt float 2.5 & info [ "p-step" ] ~docv:"DP" ~doc:"Sweep step.")
  in
  let make from upto step =
    Request.power_range ~names:("--p-from", "--p-step") ~from ~upto ~step
  in
  Term.(term_result' (const make $ p_from $ p_to $ p_step))

let print_pareto points =
  Format.printf "@.pareto front (T, P<, area):@.";
  List.iter
    (fun pt ->
      match pt.Explore.result with
      | Explore.Feasible { area; _ } ->
        Format.printf "  T=%d P<=%g area=%.0f@." pt.Explore.time_limit
          pt.Explore.power_limit area
      | Explore.Infeasible _ | Explore.Pruned _ | Explore.Failed _ -> ())
    (Explore.pareto points)

(* sweep and pareto differ only in their time axis and in whether the
   Pareto front is always printed. *)
let grid_cmd name ~doc ~times ~pareto =
  let run (gname, g) (times, powers) policy cost_model pareto preflight jobs
      cache_dir no_cache budget trace metrics flight =
    with_obs ~flight ~trace ~metrics @@ fun () ->
    let cache = sweep_store no_cache cache_dir in
    let budget = Request.start budget in
    let points =
      Explore.sweep ~cost_model ~policy ~jobs ?cache ?deadline:budget
        ~preflight ~library:Library.default g ~times ~powers
    in
    Format.printf "# benchmark=%s@.%s@." gname (Explore.render_table points);
    if pareto then print_pareto points;
    print_cache_line ~jobs cache;
    finish ?budget 0
  in
  let grid =
    Term.(
      term_result'
        (const (fun times powers -> Request.grid ~times ~powers)
        $ times $ power_range))
  in
  Cmd.v
    (Cmd.info name ~exits:budget_exits ~doc)
    Term.(
      const run $ graph_source $ grid $ policy $ cost_model
      $ pareto $ preflight_flag $ jobs_opt $ cache_dir_opt $ no_cache_flag
      $ budget $ trace_opt $ metrics_flag $ flight_flag)

let sweep_cmd =
  grid_cmd "sweep"
    ~doc:"Sweep the power constraint and report area (Figure 2 style)."
    ~times:Term.(const (fun t -> [ t ]) $ time_limit)
    ~pareto:
      Arg.(value & flag & info [ "pareto" ] ~doc:"Also print the Pareto front.")

let pareto_cmd =
  grid_cmd "pareto"
    ~doc:
      "Synthesize a full (T, P<) constraint grid in parallel and report the \
       non-dominated (time, power, area) trade-off front."
    ~times:
      Arg.(
        non_empty
        & opt (list time_conv) []
        & info [ "times" ] ~docv:"T1,T2,..."
            ~doc:"Latency constraints (cycles) spanning the grid rows.")
    ~pareto:(Term.const true)

(* --- cache -------------------------------------------------------------- *)

let cache_cmd =
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Cache directory to inspect.")
  in
  let stats_cmd =
    let run dir =
      let entries, bytes = Store.disk_usage ~dir in
      Format.printf "cache %s: %d entries, %d bytes@." dir entries bytes;
      0
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Report on-disk cache entry count and size.")
      Term.(const run $ dir_arg)
  in
  let clear_cmd =
    let run dir =
      let entries, _ = Store.disk_usage ~dir in
      Store.clear (Store.create ~dir ());
      Format.printf "cache %s: cleared %d entries@." dir entries;
      0
    in
    Cmd.v
      (Cmd.info "clear" ~doc:"Delete every on-disk cache entry.")
      Term.(const run $ dir_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Inspect or clear the on-disk synthesis cache used by \
             sweep/pareto/synth --cache-dir.")
    [ stats_cmd; clear_cmd ]

(* --- profile ----------------------------------------------------------- *)

let profile_cmd =
  let run r library trace no_color =
    apply_color no_color;
    (* A profiling run: always trace, always report. Synthesis goes through
       Explore.solve with a fresh in-memory store so the trace also shows
       the cache tier (one find miss, one add). *)
    Metrics.reset ();
    let sink = Trace.make () in
    let result =
      Trace.with_sink sink (fun () ->
          Explore.solve ~cost_model:r.cost_model ~policy:r.policy
            ~library:(the_library library) ~cache:(Store.in_memory ()) r.graph
            ~time_limit:r.time_limit ~power_limit:r.power_limit)
    in
    Option.iter (write_trace sink) trace;
    let report () =
      Format.printf "@.%s@." (Style.bold "spans:");
      print_string (Trace.render_tree sink);
      Format.printf "@.%s@." (Style.bold "metrics:");
      print_string (Metrics.dump ())
    in
    match result with
    | Explore.Feasible { design = d; _ } ->
      Format.printf "%s@."
        (Style.bold
           (Printf.sprintf "power profile of %s (T=%d, P<=%g):" r.name
              r.time_limit r.power_limit));
      print_string
        (Profile.render ~width:50
           ?limit:
             (if Float.is_finite r.power_limit then Some r.power_limit
              else None)
           (Design.profile d));
      report ();
      0
    | Explore.Infeasible reason | Explore.Pruned reason ->
      err_infeasible r.name reason;
      report ();
      1
    | Explore.Failed reason ->
      Format.eprintf "%s: %s@." (Style.red "error") reason;
      report ();
      2
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Synthesize under a tracing sink, render the per-cycle power \
             profile, the span tree and the metrics table; --trace also \
             writes the Chrome trace_event JSON.")
    Term.(const run $ request $ library_opt $ trace_opt $ no_color_flag)

(* --- trace -------------------------------------------------------------- *)

let trace_cmd =
  let file_arg ~doc =
    Arg.(
      required
      & pos 0 (some Arg.file) None
      & info [] ~docv:"FILE.json" ~doc)
  in
  let validate_cmd =
    let run path =
      match Event.of_chrome (read_file path) with
      | Ok events ->
        Format.printf "%s: valid Chrome trace, %d events@." path
          (List.length events);
        0
      | Error msg ->
        Format.eprintf "%s: %s: %s@." path (Style.red "invalid trace") msg;
        1
    in
    Cmd.v
      (Cmd.info "validate"
         ~doc:"Strictly parse a Chrome trace_event JSON file and check the \
               schema pchls emits; exits 1 on any violation.")
      Term.(const run $ file_arg ~doc:"Trace file to validate.")
  in
  let tree_cmd =
    let run path =
      match Event.of_chrome (read_file path) with
      | Ok events ->
        print_string (Event.render_tree events);
        0
      | Error msg ->
        Format.eprintf "%s: %s: %s@." path (Style.red "invalid trace") msg;
        1
    in
    Cmd.v
      (Cmd.info "tree"
         ~doc:"Render a saved Chrome trace_event JSON file (from --trace, a \
               flight-recorder dump or GET /trace) as the same indented \
               span tree $(b,pchls profile --trace -) prints, offline.")
      Term.(const run $ file_arg ~doc:"Trace file to render.")
  in
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Work with Chrome trace_event JSON profiles written by --trace \
             and the flight recorder.")
    [ validate_cmd; tree_cmd ]

(* --- metrics ------------------------------------------------------------ *)

let metrics_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some Arg.file) None
      & info [] ~docv:"FILE.prom"
          ~doc:"Prometheus text-exposition file to validate (e.g. a saved \
                GET /metrics response).")
  in
  let validate_cmd =
    let run path =
      match Metrics.validate_prometheus (read_file path) with
      | Ok n ->
        Format.printf "%s: valid Prometheus exposition, %d samples@." path n;
        0
      | Error msg ->
        Format.eprintf "%s: %s: %s@." path
          (Style.red "invalid exposition")
          msg;
        1
    in
    Cmd.v
      (Cmd.info "validate"
         ~doc:"Check a Prometheus text-exposition document: TYPE lines, \
               sample syntax, histogram bucket monotonicity and the \
               _count/+Inf invariant; exits 1 on any violation.")
      Term.(const run $ file_arg)
  in
  Cmd.group
    (Cmd.info "metrics"
       ~doc:"Work with Prometheus text expositions served by GET /metrics.")
    [ validate_cmd ]

(* --- flight ------------------------------------------------------------- *)

let flight_cmd =
  let pid_arg =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"PID"
          ~doc:"Process id of a pchls run started with --flight (or pchls \
                serve).")
  in
  let dump_cmd =
    let run pid =
      match Unix.kill pid Sys.sigusr1 with
      | () ->
        Format.printf
          "sent SIGUSR1 to %d; it dumps its flight ring to the path it \
           printed at startup@."
          pid;
        0
      | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "flight dump: kill %d: %s@." pid
          (Unix.error_message e);
        1
    in
    Cmd.v
      (Cmd.info "dump"
         ~doc:"Ask a running pchls process (started with --flight, or pchls \
               serve) to dump its flight-recorder ring as Chrome \
               trace_event JSON by sending it SIGUSR1.")
      Term.(const run $ pid_arg)
  in
  Cmd.group
    (Cmd.info "flight"
       ~doc:"Interact with the in-memory flight recorder of a running \
             pchls process.")
    [ dump_cmd ]

(* --- fuzz --------------------------------------------------------------- *)

module Fuzz = Pchls_fuzz.Fuzz

let corpus_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:"Persist minimized repros under $(docv), one sub-directory per \
              failure bucket. $(b,pchls fuzz replay) re-checks them.")

let exact_max_vertices_opt =
  Arg.(
    value
    & opt int Fuzz.default_config.Fuzz.exact_max_vertices
    & info [ "exact-max-vertices" ] ~docv:"N"
        ~doc:"Run the exact branch-and-bound area oracle only on designs \
              with at most $(docv) operations; larger instances are counted \
              as exact-skipped (never as passes).")

let fuzz_run_term =
  let runs_opt =
    Arg.(
      value
      & opt int Fuzz.default_config.Fuzz.runs
      & info [ "runs" ] ~docv:"N" ~doc:"Number of fuzz cases to execute.")
  in
  let seed_opt =
    Arg.(
      value
      & opt int Fuzz.default_config.Fuzz.seed
      & info [ "seed" ] ~docv:"S"
          ~doc:"Campaign seed; the same seed replays the same cases, \
                whatever --jobs is.")
  in
  let max_nodes_opt =
    Arg.(
      value
      & opt (checked int at_least_one) Fuzz.default_config.Fuzz.max_nodes
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:"Cap on generated operation nodes per case (I/O nodes come \
                on top).")
  in
  let run runs seed jobs max_nodes exact_max_vertices library corpus budget
      trace metrics flight no_color =
    apply_color no_color;
    with_obs ~flight ~trace ~metrics @@ fun () ->
    let budget = Request.start budget in
    let config =
      {
        Fuzz.runs;
        seed;
        jobs;
        max_nodes;
        exact_max_vertices;
        library = the_library library;
        corpus;
        deadline = budget;
      }
    in
    match Fuzz.run config with
    | Error msg ->
      Format.eprintf "%s: %s@." (Style.red "fuzz") msg;
      2
    | Ok summary ->
      Format.printf "# seed=%d runs=%d max-nodes=%d exact-max-vertices=%d@."
        seed runs max_nodes exact_max_vertices;
      print_string (Fuzz.render_summary summary);
      if summary.Fuzz.findings <> [] then 1
      else if summary.Fuzz.deadline_skipped > 0 then 3
      else finish ?budget 0
  in
  Term.(
    const run $ runs_opt $ seed_opt $ jobs_opt $ max_nodes_opt
    $ exact_max_vertices_opt $ library_opt $ corpus_opt $ budget $ trace_opt
    $ metrics_flag $ flight_flag $ no_color_flag)

let fuzz_cmd =
  let replay_cmd =
    let corpus_req =
      Arg.(
        required
        & opt (some string) None
        & info [ "corpus" ] ~docv:"DIR" ~doc:"Corpus directory to replay.")
    in
    let run corpus exact_max_vertices library no_color =
      apply_color no_color;
      match
        Fuzz.replay ~exact_max_vertices ~library:(the_library library) ~corpus
          ()
      with
      | Error msg ->
        Format.eprintf "%s: %s@." (Style.red "replay") msg;
        2
      | Ok summary ->
        print_string (Fuzz.render_replay summary);
        if summary.Fuzz.still_failing = 0 && summary.Fuzz.unreadable = 0 then 0
        else 1
    in
    Cmd.v
      (Cmd.info "replay"
         ~doc:"Re-check every minimized repro in a corpus against the \
               current engine (the corpus regression gate). Exits 1 when \
               any repro fails again.")
      Term.(
        const run $ corpus_req $ exact_max_vertices_opt $ library_opt
        $ no_color_flag)
  in
  Cmd.group ~default:fuzz_run_term
    (Cmd.info "fuzz" ~exits:budget_exits
       ~doc:"Differential fuzzing: sample random (DFG, T, P<) instances \
             near the feasibility boundary, cross-check the engine against \
             the lint, latency, power and exact-area oracles, and shrink \
             any failure to a minimal repro. Deterministic per --seed; \
             exits 1 when a failure is found.")
    [ replay_cmd ]

(* --- battery ----------------------------------------------------------- *)

(* Each model steps cycle by cycle, so a large capacity costs time in
   proportion; past this many cycles the verdict is [Survives]. *)
let battery_max_cycles = 10_000_000

let battery_cmd =
  let capacity =
    Arg.(
      value
      & opt (checked float finite_positive) 50_000.
      & info [ "capacity" ] ~docv:"C" ~doc:"Battery capacity (power-cycles).")
  in
  let run r capacity =
    with_design r @@ fun d ->
      let profile = Profile.to_array (Design.profile d) in
      Format.printf "battery lifetimes for %s (T=%d, P<=%g):@." r.name
        r.time_limit r.power_limit;
      List.iter
        (fun model ->
          let v = Sim.lifetime model ~profile ~max_cycles:battery_max_cycles in
          Format.printf "  %-40s %a@."
            (Format.asprintf "%a" Model.pp model)
            Sim.pp_verdict v)
        [
          Model.ideal ~capacity;
          Model.peukert ~capacity ~exponent:1.3 ~reference:5.;
          Model.kibam ~capacity ~well_fraction:0.05 ~rate:0.01;
          Model.kibam ~capacity ~well_fraction:0.001 ~rate:0.0005;
        ];
      let rak = Pchls_battery.Rakhmatov.create ~alpha:capacity ~beta:0.3 () in
      let v =
        Pchls_battery.Rakhmatov.lifetime rak ~profile
          ~max_cycles:battery_max_cycles
      in
      Format.printf "  %-40s %a@."
        (Format.asprintf "%a" Pchls_battery.Rakhmatov.pp rak)
        Sim.pp_verdict v;
      0
  in
  Cmd.v
    (Cmd.info "battery"
       ~doc:"Estimate battery lifetime of the synthesized design."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Each battery model is simulated cycle by cycle for at most \
              10000000 cycles; a battery still alive then reads $(b,survives \
              10000000 cycles).";
         ])
    Term.(const run $ request $ capacity)

(* --- report ------------------------------------------------------------ *)

let report_cmd =
  let summary_flag =
    Arg.(
      value & flag
      & info [ "summary" ] ~doc:"Emit the one-row design summary instead.")
  in
  let run r summary no_color =
    apply_color no_color;
    with_design r @@ fun d ->
    print_string
      (if summary then Pchls_core.Report.summary_csv d
       else Pchls_core.Report.csv d);
    0
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Synthesize and emit a per-operation CSV report.")
    Term.(const run $ request $ summary_flag $ no_color_flag)

(* --- dot --------------------------------------------------------------- *)

let dot_cmd =
  let annotate =
    Arg.(
      value & flag
      & info [ "schedule" ]
          ~doc:"Annotate nodes with start times (requires -t).")
  in
  let time_opt =
    Arg.(
      value
      & opt (some time_conv) None
      & info [ "t"; "time" ] ~docv:"CYCLES" ~doc:"Latency constraint.")
  in
  let run (name, g) annotate time_opt p =
    let annotate_fn =
      match (annotate, time_opt) with
      | true, Some t -> (
        match
          Engine.run ~library:Library.default ~time_limit:t ~power_limit:p g
        with
        | Engine.Synthesized (d, _) ->
          fun id ->
            Some
              (Printf.sprintf "t=%d"
                 (Schedule.start (Design.schedule d) id))
        | Engine.Infeasible { reason } ->
          err_infeasible name reason;
          fun _ -> None)
      | (true | false), _ -> fun _ -> None
    in
    print_string (Dot.to_string ~annotate:annotate_fn g);
    0
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit the benchmark CDFG in Graphviz DOT syntax.")
    Term.(const run $ graph_source $ annotate $ time_opt $ power_limit)

(* --- rtl --------------------------------------------------------------- *)

let rtl_cmd =
  let lang =
    Arg.(
      value
      & opt (enum [ ("vhdl", `Vhdl); ("verilog", `Verilog) ]) `Vhdl
      & info [ "lang" ] ~docv:"LANG" ~doc:"Output language: vhdl or verilog.")
  in
  let width =
    Arg.(
      value
      & opt (checked int at_least_one) 16
      & info [ "width" ] ~docv:"BITS" ~doc:"Datapath width in bits.")
  in
  let testbench_flag =
    Arg.(value & flag & info [ "testbench" ] ~doc:"Emit a testbench instead.")
  in
  let control_flag =
    Arg.(
      value & flag
      & info [ "control" ] ~doc:"Emit the control-word CSV instead.")
  in
  let vcd_flag =
    Arg.(
      value & flag
      & info [ "vcd" ] ~doc:"Emit a VCD waveform of one iteration instead.")
  in
  let functional_flag =
    Arg.(
      value & flag
      & info [ "functional" ]
          ~doc:"Emit functionally complete Verilog (real operation bodies, \
                I/O ports) instead of the structural skeleton.")
  in
  let run r lang width testbench control vcd functional =
    with_design r @@ fun d ->
      let n = Netlist.of_design d in
      print_string
        (if vcd then Pchls_rtl.Vcd.of_design d
         else if control then Pchls_rtl.Control.csv n
         else if functional then Pchls_rtl.Verilog_functional.emit ~width d
         else
           match (lang, testbench) with
           | `Vhdl, false -> Pchls_rtl.Vhdl.emit ~width n
           | `Verilog, false -> Pchls_rtl.Verilog.emit ~width n
           | `Vhdl, true -> Pchls_rtl.Testbench.vhdl n
           | `Verilog, true -> Pchls_rtl.Testbench.verilog n);
      0
  in
  Cmd.v
    (Cmd.info "rtl" ~doc:"Synthesize and emit RTL (VHDL or Verilog).")
    Term.(
      const run $ request $ lang $ width $ testbench_flag $ control_flag
      $ vcd_flag $ functional_flag)

(* --- serve -------------------------------------------------------------- *)

let serve_cmd =
  let host_opt =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port_opt =
    Arg.(
      value & opt int 8080
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"Listening port; 0 picks an ephemeral port (printed on \
                startup).")
  in
  let threads_opt =
    Arg.(
      value & opt int 8
      & info [ "threads" ] ~docv:"N"
          ~doc:"Handler threads — the number of connections served \
                concurrently. Engine work runs on the $(b,--jobs) worker \
                domains, not on these threads.")
  in
  let mem_entries_opt =
    Arg.(
      value
      & opt (some int) (Some 4096)
      & info [ "cache-mem-entries" ] ~docv:"N"
          ~doc:"LRU cap on the in-memory cache tier; least recently used \
                entries are evicted past it (cache.evictions metric). Pass \
                0 for unbounded.")
  in
  let serve_deadline_opt =
    Arg.(
      value
      & opt (some (checked float Request.deadline_ms)) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Ceiling on (and default for) per-request synthesis \
                budgets: the one wall limit on every engine task, counted \
                from before it waits for a worker domain. A request whose \
                budget expires gets HTTP 206 with its best partial \
                (anytime) result.")
  in
  let max_body_opt =
    Arg.(
      value
      & opt int (1024 * 1024)
      & info [ "max-body-bytes" ] ~docv:"BYTES"
          ~doc:"Request body size cap; larger bodies get HTTP 413.")
  in
  let serve_trace_flag =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Install a process-wide trace sink and serve its Chrome \
                trace_event JSON at GET /trace.")
  in
  let flight_capacity_opt =
    Arg.(
      value
      & opt int Trace.default_capacity
      & info [ "flight-capacity" ] ~docv:"N"
          ~doc:"Per-shard ring size of the always-on flight recorder \
                (dumped on crashes, on SIGUSR1 and at GET /debug/flight). \
                0 turns the recorder off.")
  in
  let access_log_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"PATH"
          ~doc:"Write a JSON-lines access log (one object per request, \
                with its x-request-id) to $(docv); $(b,-) logs to stdout.")
  in
  let slow_ms_opt =
    Arg.(
      value & opt float 1000.
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:"Requests taking at least $(docv) milliseconds are logged \
                as slow-request at warn level in the access log.")
  in
  let max_queue_opt =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Admission queue depth: connections past $(docv) waiting \
                entries are shed with HTTP 503 and a Retry-After header.")
  in
  let queue_age_opt =
    Arg.(
      value & opt float 1000.
      & info [ "queue-age-ms" ] ~docv:"MS"
          ~doc:"Connections that waited over $(docv) milliseconds in the \
                admission queue are answered 503 instead of served \
                (CoDel-style head drop of stale work).")
  in
  let shed_threshold_opt =
    Arg.(
      value & opt float 0.75
      & info [ "shed-threshold" ] ~docv:"FRACTION"
          ~doc:"Queue-fullness fraction past which /synth and /sweep \
                degrade (clamped deadlines, then preflight-only answers, \
                marked with an x-pchls-degraded header). Values above 1 \
                disable degradation.")
  in
  let breaker_opt =
    Arg.(
      value & opt bool true
      & info [ "breaker" ] ~docv:"BOOL"
          ~doc:"Per-endpoint circuit breakers: a burst of 5xx outcomes \
                opens the endpoint and callers fast-fail 503 until a \
                cooldown probe succeeds.")
  in
  let run host port threads jobs library cache_dir no_cache mem_entries
      deadline_ms max_body trace flight_capacity access_log slow_ms max_queue
      queue_age_ms shed_threshold breaker no_color =
    apply_color no_color;
    let config =
      {
        Server.default_config with
        Server.host;
        port;
        threads;
        jobs;
        library = the_library library;
        cache = not no_cache;
        cache_dir;
        cache_mem_entries =
          (match mem_entries with Some 0 -> None | other -> other);
        max_deadline_ms = deadline_ms;
        max_body_bytes = max_body;
        trace;
        flight_capacity = max 0 flight_capacity;
        access_log;
        slow_ms;
        max_queue;
        queue_age_ms;
        shed_threshold;
        breaker;
      }
    in
    match Server.run config with
    | code -> code
    | exception Unix.Unix_error (e, _, _) ->
      Format.eprintf "serve: %s@." (Unix.error_message e);
      2
    | exception Invalid_argument msg ->
      Format.eprintf "serve: %s@." msg;
      2
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run synthesis as a long-lived HTTP service."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Serves the synthesis engine over HTTP/1.1: POST /synth, \
              /sweep, /pareto, /check and /preflight take JSON bodies \
              (one of benchmark/dfg/beh plus constraints); GET /metrics \
              (JSON, or Prometheus text under Accept: text/plain), \
              /trace, /debug/flight and /healthz expose observability, \
              and every response carries an x-request-id header that also \
              tags the request's trace spans and access-log line. Engine \
              semantics map onto statuses: 200 complete, 422 infeasible, \
              500 internal error, 206 partial (budget expired). One \
              shared result cache serves all requests and identical \
              in-flight requests are coalesced. See docs/SERVING.md.";
           `P
             "Overload protection: a bounded admission queue sheds excess \
              connections with 503 + Retry-After ($(b,--max-queue), \
              $(b,--queue-age-ms)), pressure past $(b,--shed-threshold) \
              degrades /synth and /sweep to fast partial or \
              preflight-only answers (x-pchls-degraded header), circuit \
              breakers ($(b,--breaker)) fast-fail endpoints that keep \
              returning 5xx, and a hung engine task answers 206 at \
              $(b,--deadline-ms). See docs/ROBUSTNESS.md.";
           `P
             "SIGINT/SIGTERM drains in-flight requests and exits 0; a \
              second signal force-exits 1.";
         ])
    Term.(
      const run $ host_opt $ port_opt $ threads_opt $ jobs_opt $ library_opt
      $ cache_dir_opt $ no_cache_flag $ mem_entries_opt $ serve_deadline_opt
      $ max_body_opt $ serve_trace_flag $ flight_capacity_opt $ access_log_opt
      $ slow_ms_opt $ max_queue_opt $ queue_age_opt $ shed_threshold_opt
      $ breaker_opt $ no_color_flag)

(* --- main -------------------------------------------------------------- *)

let () =
  let doc = "power-constrained high-level synthesis (Nielsen & Madsen, DATE'03)" in
  let info = Cmd.info "pchls" ~version:Server.version ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            list_cmd; synth_cmd; check_cmd; preflight_cmd; sweep_cmd;
            pareto_cmd; cache_cmd;
            profile_cmd; trace_cmd; metrics_cmd; flight_cmd; fuzz_cmd;
            battery_cmd; report_cmd;
            dot_cmd; rtl_cmd; serve_cmd;
          ]))
