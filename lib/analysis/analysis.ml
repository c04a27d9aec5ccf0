module Diag = Pchls_diag.Diag
module Design = Pchls_core.Design
module Netlist = Pchls_rtl.Netlist
module Trace = Pchls_obs.Trace
module Metrics = Pchls_obs.Metrics
module Clock = Pchls_obs.Clock

(* One histogram per lint pass, registered once: [run_all_timed] feeds them
   so repeated checks accumulate into the same registry entries. *)
let lint_hist name =
  Metrics.histogram ~buckets:Metrics.ns_buckets ("check." ^ name ^ "_ns")

let h_dfg = lint_hist "dfg"
let h_preflight = lint_hist "preflight"
let h_sched = lint_hist "sched"
let h_bind = lint_hist "bind"
let h_netlist = lint_hist "netlist"

(* Static bounds must agree with the constraints the assembled design
   already satisfies; a certificate here means the bound analysis is
   unsound (or the design violates its own limits), so surface it. Quiet on
   healthy designs: only certificate errors are reported, never the
   informational summary. *)
let preflight_lint ~library d =
  let module Preflight = Pchls_preflight.Preflight in
  match
    Preflight.analyze ~library ~time_limit:(Design.time_limit d)
      ~power_limit:(Design.power_limit d) (Design.graph d)
  with
  | r -> Preflight.to_diags r
  | exception Invalid_argument _ -> []

let run_all_timed ?library ?max_instances d =
  let timings = ref [] in
  let pass name hist f =
    Trace.span ~cat:"check" ("check." ^ name) @@ fun () ->
    let t0 = Clock.now_ns () in
    let r = f () in
    let dt = Clock.elapsed_ns ~since:t0 in
    Metrics.observe hist dt;
    timings := (name, dt) :: !timings;
    r
  in
  let dfg = pass "dfg" h_dfg (fun () -> Dfg_lint.lint ?library (Design.graph d)) in
  let pre =
    match library with
    | None -> []
    | Some library ->
      pass "preflight" h_preflight (fun () -> preflight_lint ~library d)
  in
  let sched =
    pass "sched" h_sched (fun () ->
        let power_limit = Design.power_limit d in
        Pchls_sched.Schedule.lint (Design.graph d) (Design.schedule d)
          ~info:(Design.info d) ~time_limit:(Design.time_limit d)
          ?power_limit:
            (if Float.is_finite power_limit then Some power_limit else None)
          ())
  in
  let bind = pass "bind" h_bind (fun () -> Bind_lint.lint ?max_instances d) in
  let net =
    pass "netlist" h_netlist (fun () ->
        Netlist_lint.lint ~design:d (Netlist.of_design d))
  in
  (Diag.sort (dfg @ pre @ sched @ bind @ net), List.rev !timings)

let run_all ?library ?max_instances d =
  fst (run_all_timed ?library ?max_instances d)

let summary ds =
  let errors = Diag.count Diag.Error ds in
  let warnings = Diag.count Diag.Warning ds in
  let infos = Diag.count Diag.Info ds in
  if errors = 0 && warnings = 0 && infos = 0 then "clean"
  else
    let plural n what =
      Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s")
    in
    String.concat ", "
      (List.filter_map
         (fun (n, what) -> if n > 0 then Some (plural n what) else None)
         [ (errors, "error"); (warnings, "warning"); (infos, "info") ])
