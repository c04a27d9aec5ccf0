(* Answer and wall-time regression gate over BENCH_*.json records.

   Usage: dune exec bench/compare.exe -- <baseline.json> <current.json>

   Matches sections by name. First, when a baseline section carries a
   "result" (the answer the leg computed: an engine leg's area, counts and
   design digest, a scheduler leg's bindings digest and offset delays, the
   serve load's status counts and digest of its /synth answers),
   the current section of that name must carry the same one: any
   difference fails
   (exit 1) with "result changed" before any time is read, as a faster
   run that answers differently is a different program, not a speedup.
   Then it fails (exit 1) when a section's wall time regressed by more
   than 25% against the baseline. Sections whose
   baseline is below a 50 ms noise floor are reported but never gate:
   at that scale scheduler jitter dominates and a ratio is meaningless.
   Sections present on only one side are reported as added/removed and
   do not gate either, so the baseline does not have to be regenerated
   in the same commit that introduces a new bench.

   Exit codes: 0 clean, 1 regression, 2 usage error, 3 input file
   missing or malformed. A missing or unparseable baseline is a wiring
   problem (uncommitted baseline, wrong artifact path), not a perf
   regression — CI must be able to tell the two apart from the code
   alone. *)

module Json = Pchls_obs.Json

let noise_floor_s = 0.05
let max_regression = 0.25

let usage_error fmt =
  Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let input_error fmt =
  Printf.ksprintf
    (fun msg -> prerr_endline ("compare: bad input: " ^ msg); exit 3)
    fmt

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> input_error "%s" msg
  | text -> (
    match Json.parse text with
    | Error msg -> input_error "%s: %s" path msg
    | Ok json -> json)

let records path json =
  match Json.member "sections" json with
  | Some (Json.List items) ->
    List.filter_map
      (fun item ->
        match Json.member "section" item with
        | Some (Json.String name) -> Some (name, item)
        | _ -> None)
      items
  | _ -> input_error "%s: no \"sections\" array" path

let sections records =
  List.filter_map
    (fun (name, item) ->
      match Json.member "wall_s" item with
      | Some (Json.Number wall_s) -> Some (name, wall_s)
      | _ -> None)
    records

(* Sections on both sides whose baseline has a "result" the current run
   does not repeat, with both results as JSON text ("-" for none). *)
let changed_results baseline current =
  List.filter_map
    (fun (name, base) ->
      match (Json.member "result" base, List.assoc_opt name current) with
      | None, _ | _, None -> None
      | Some expected, Some item -> (
        match Json.member "result" item with
        | Some r when r = expected -> None
        | Some r -> Some (name, Json.to_string expected, Json.to_string r)
        | None -> Some (name, Json.to_string expected, "-")))
    baseline

let () =
  let baseline_path, current_path =
    match Sys.argv with
    | [| _; b; c |] -> (b, c)
    | _ -> usage_error "usage: compare <baseline.json> <current.json>"
  in
  let baseline_records = records baseline_path (load baseline_path) in
  let current_records = records current_path (load current_path) in
  (match changed_results baseline_records current_records with
  | [] -> ()
  | changed ->
    List.iter
      (fun (name, expected, got) ->
        Printf.printf "%-24s result changed\n  baseline: %s\n  current:  %s\n"
          name expected got)
      changed;
    Printf.printf "%d section(s): result changed\n" (List.length changed);
    exit 1);
  let baseline = sections baseline_records in
  let current = sections current_records in
  let regressions = ref 0 in
  Printf.printf "%-24s %10s %10s %8s  %s\n" "section" "baseline" "current"
    "delta" "verdict";
  List.iter
    (fun (name, base_s) ->
      match List.assoc_opt name current with
      | None -> Printf.printf "%-24s %9.3fs %10s %8s  removed\n" name base_s "-" "-"
      | Some cur_s ->
        let delta = (cur_s -. base_s) /. base_s in
        let verdict =
          if base_s < noise_floor_s then "ok (below noise floor)"
          else if delta > max_regression then begin
            incr regressions;
            "REGRESSED"
          end
          else "ok"
        in
        Printf.printf "%-24s %9.3fs %9.3fs %+7.1f%%  %s\n" name base_s cur_s
          (100. *. delta) verdict)
    baseline;
  List.iter
    (fun (name, cur_s) ->
      if not (List.mem_assoc name baseline) then
        Printf.printf "%-24s %10s %9.3fs %8s  added\n" name "-" cur_s "-")
    current;
  if !regressions > 0 then begin
    Printf.printf "%d section(s) regressed more than %.0f%%\n" !regressions
      (100. *. max_regression);
    exit 1
  end
