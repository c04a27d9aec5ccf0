(* Correctness of one answer, judged against the constraints the caller
   *requested* — never against the limits a design carries about itself,
   which a broken engine could have rewritten (PCHLS_CHAOS=engine.power-check
   sets them to infinity, and Analysis.run_all then passes the design). *)

module Trace = Pchls_obs.Trace
module Design = Pchls_core.Design
module Report = Pchls_core.Report
module Profile = Pchls_power.Profile
module Analysis = Pchls_analysis.Analysis
module Diag = Pchls_diag.Diag
module Preflight = Pchls_preflight.Preflight
module Library = Pchls_fulib.Library

let library = Library.default

let first_error diags =
  List.find_opt (fun (d : Diag.t) -> d.Diag.severity = Diag.Error) diags

(* A feasible design must record the limits it was asked for, finish by T,
   stay under P< in every cycle, and pass every cross-layer lint. *)
let design ~time_limit ~power_limit d =
  if Design.time_limit d <> time_limit || Design.power_limit d <> power_limit then
    Error "design records limits other than the requested"
  else if Design.makespan d > time_limit then Error "makespan exceeds requested T"
  else if Profile.peak (Design.profile d) > power_limit +. Profile.eps then
    Error "peak exceeds requested P<"
  else
    let diags =
      Trace.span ~cat:"bench" "analysis.run_all" (fun () ->
          Analysis.run_all ~library d)
    in
    match first_error diags with
    | None -> Ok ()
    | Some e -> Error ("analysis: " ^ e.Diag.code)

(* A pruned point's certificate must survive the independent checker. The
   sweep keeps only the rendered certificate, so it is re-derived with the
   sweep's own cheap configuration and must match before it is verified. *)
let pruned g ~time_limit ~power_limit ~reason =
  let r =
    Trace.span ~cat:"bench" "preflight.analyze" (fun () ->
        Preflight.analyze ~exact_max_vertices:0 ~library ~time_limit
          ~power_limit g)
  in
  match Preflight.first_certificate r with
  | None -> Error "pruned point has no preflight certificate"
  | Some c ->
    let rendered =
      Preflight.certificate_code c ^ ": " ^ Preflight.certificate_to_string c
    in
    if rendered <> reason then Error "pruned reason differs from its certificate"
    else (
      match Preflight.verify ~library ~time_limit ~power_limit g c with
      | Ok () -> Ok ()
      | Error _ -> Error "preflight certificate fails Preflight.verify")

(* [reassemble d] rebuilds [d] through the public Design.assemble from its
   own binding, under the requested limits: a round trip that must succeed
   for a self-consistent design. *)
let reassemble ~graph ~time_limit ~power_limit instances =
  Trace.span ~cat:"bench" "design.assemble" (fun () ->
      Design.assemble ~cost_model:Pchls_core.Cost_model.default ~graph
        ~time_limit ~power_limit ~instances)

let instances_of d =
  List.map
    (fun (i : Design.instance) -> (i.Design.spec, i.Design.ops))
    (Design.instances d)

let digest d = Digest.to_hex (Digest.string (Report.csv d))
