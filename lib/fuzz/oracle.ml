module Graph = Pchls_dfg.Graph
module Library = Pchls_fulib.Library
module Schedule = Pchls_sched.Schedule
module Profile = Pchls_power.Profile
module Engine = Pchls_core.Engine
module Design = Pchls_core.Design
module Analysis = Pchls_analysis.Analysis
module Diag = Pchls_diag.Diag
module Preflight = Pchls_preflight.Preflight

type exact_status = Checked | Skipped | Not_run

type failure = { oracle : string; code : string; detail : string }

type verdict = Pass of { feasible : bool; exact : exact_status } | Fail of failure

let bucket f =
  let sanitize s =
    String.map
      (fun c ->
        match c with
        | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '-' -> c
        | _ -> '_')
      s
  in
  sanitize f.oracle ^ "-" ^ sanitize f.code

let exact_fu_floor ?(max_vertices = 12) ~library d =
  let g = Design.graph d and sched = Design.schedule d in
  let interval id =
    let s = Schedule.start sched id in
    Some (s, s + (Design.info d id).Schedule.latency)
  in
  Preflight.exact_fu_area ~max_vertices ~modules:(Library.to_list library)
    ~kind:(Graph.kind g) ~interval (Graph.node_ids g)

(* [eps] headroom on float comparisons so the oracle never flags
   accumulated rounding as a violation. *)
let area_eps = 1e-6

(* The sound-bounds invariant: preflight's lower bounds must never exceed
   what the engine actually achieved, its upper bound never undercut it,
   every certificate must re-verify from scratch, and — the pruning safety
   property — preflight must never call an instance infeasible that the
   engine just synthesized (a "false prune"). [design = None] when the
   engine reported infeasible: there is nothing to bracket, but the
   certificates still have to verify. *)
let preflight_failure ~exact_max_vertices ~library ~graph ~time_limit
    ~power_limit design =
  let fail code fmt =
    Printf.ksprintf
      (fun detail -> Some { oracle = "preflight"; code; detail })
      fmt
  in
  match
    Preflight.analyze ~exact_max_vertices ~library ~time_limit ~power_limit
      graph
  with
  | exception e -> fail "crash" "%s" (Printexc.to_string e)
  | pf -> (
    let bad_certificate =
      List.find_map
        (fun c ->
          match Preflight.verify ~library ~time_limit ~power_limit graph c with
          | Ok () -> None
          | Error e ->
            fail "bad_certificate" "%s: %s" (Preflight.certificate_code c) e)
        pf.Preflight.certificates
    in
    match (bad_certificate, design) with
    | Some _, _ -> bad_certificate
    | None, None -> None
    | None, Some d -> (
      if Preflight.infeasible pf then
        fail "false_prune" "engine synthesized but preflight proved: %s"
          (match Preflight.first_certificate pf with
          | Some c -> Preflight.certificate_to_string c
          | None -> "?")
      else
        match pf.Preflight.bounds with
        | None ->
          fail "no_bounds" "no certificate fired yet bounds are missing"
        | Some b ->
          let makespan = Design.makespan d in
          let peak = Profile.peak (Design.profile d) in
          let fu = (Design.area d).Design.fu in
          if b.Preflight.latency_lb > makespan then
            fail "latency_lb" "latency lower bound %d exceeds makespan %d"
              b.Preflight.latency_lb makespan
          else if b.Preflight.demand_peak > peak +. Profile.eps then
            fail "power_lb" "demand lower bound %g exceeds achieved peak %g"
              b.Preflight.demand_peak peak
          else if b.Preflight.energy_lb > Design.energy d +. area_eps then
            fail "energy_lb" "energy lower bound %g exceeds design energy %g"
              b.Preflight.energy_lb (Design.energy d)
          else if b.Preflight.fu_area_lb > fu +. area_eps then
            fail "area_lb" "FU-area lower bound %g exceeds FU area %g"
              b.Preflight.fu_area_lb fu
          else if fu > b.Preflight.fu_area_ub +. area_eps then
            fail "area_ub" "FU area %g exceeds upper bound %g" fu
              b.Preflight.fu_area_ub
          else None))

let check ?(exact_max_vertices = 12) ~library inst =
  let { Sampler.graph; time_limit; power_limit; _ } = inst in
  let preflight design =
    preflight_failure ~exact_max_vertices ~library ~graph ~time_limit
      ~power_limit design
  in
  match
    Engine.run ~library ~time_limit ~power_limit graph
  with
  | exception e ->
    let code =
      String.map (fun c -> if c = '.' then '_' else c) (Printexc.exn_slot_name e)
    in
    Fail { oracle = "crash"; code; detail = Printexc.to_string e }
  | Engine.Infeasible _ -> (
    match preflight None with
    | Some f -> Fail f
    | None -> Pass { feasible = false; exact = Not_run })
  | Engine.Synthesized (d, _) -> (
    let ds = Analysis.run_all ~library d in
    match List.filter (fun d -> d.Diag.severity = Diag.Error) ds with
    | first :: _ ->
      Fail
        {
          oracle = "lint";
          code = first.Diag.code;
          detail = Diag.to_string first;
        }
    | [] ->
      let makespan = Design.makespan d in
      if makespan > time_limit then
        Fail
          {
            oracle = "latency";
            code = "makespan";
            detail =
              Printf.sprintf "makespan %d exceeds requested T=%d" makespan
                time_limit;
          }
      else
        let peak = Profile.peak (Design.profile d) in
        if peak > power_limit +. Profile.eps then
          Fail
            {
              oracle = "power";
              code = "peak";
              detail =
                Printf.sprintf "peak power %g exceeds requested P<=%g" peak
                  power_limit;
            }
        else
          let finish exact =
            match preflight (Some d) with
            | Some f -> Fail f
            | None -> Pass { feasible = true; exact }
          in
          (match exact_fu_floor ~max_vertices:exact_max_vertices ~library d with
          | None -> finish Skipped
          | Some floor ->
            let fu = (Design.area d).Design.fu in
            if fu < floor -. area_eps then
              Fail
                {
                  oracle = "exact";
                  code = "fu_area";
                  detail =
                    Printf.sprintf
                      "FU area %g beats the exact optimum %g — sharing is \
                       mis-counted"
                      fu floor;
                }
            else finish Checked))
