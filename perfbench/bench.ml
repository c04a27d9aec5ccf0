(* The pchls benchmark: runs one seeded workload and prints, as its last
   stdout line, {"correct", "attempted", "failed", "metrics"} — the
   end-to-end metrics of BENCHMARK.json from an untraced run (--trace 0), or
   its per-layer metrics from a traced one (--trace 1). The line before it
   is the workload record: design digest, quality and the correctness
   tally by failure reason.

   Run it through perfbench/run.py, which builds it first:
     python3 perfbench/run.py --workload sweep-mixed --seed 3 --seconds 20 --trace 0 *)

open Common

let workloads =
  [ ("synth-1k", Synth_1k.run); ("sweep-mixed", Sweep_mixed.run); ("serve-zipf", Serve_zipf.run) ]

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let pchls = ref "" and work_dir = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--pchls", Arg.Set_string pchls, "PATH the pchls executable");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1 --pchls PATH --work-dir DIR";
  if not (List.mem_assoc !workload workloads) then
    raise (Arg.Bad ("unknown workload " ^ !workload));
  if !pchls = "" || !work_dir = "" then raise (Arg.Bad "--pchls and --work-dir are required");
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    pchls = !pchls;
    work_dir = !work_dir;
    jobs = Domain.recommended_domain_count ();
  }

(* (name, unit) of every metric the run must report, from BENCHMARK.json. *)
let catalogue ~trace =
  let spec =
    match Json.parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  match Json.member (if trace then "per_layer" else "end_to_end") spec with
  | Some (Json.List ms) ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.String n), Some (Json.String u) -> (n, u)
        | _ -> failwith "BENCHMARK.json: metric without name/unit")
      ms
  | _ -> failwith "BENCHMARK.json: no metric list"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Digests persist per (workload, seed) in the work directory, so a change
   between two runs — of the same code or not — gets reported. *)
let note_digest cfg digest =
  let path = Filename.concat cfg.work_dir "digests.json" in
  let key = Printf.sprintf "%s/seed=%d" cfg.workload cfg.seed in
  let known =
    if Sys.file_exists path then
      match Json.parse (In_channel.with_open_text path In_channel.input_all) with
      | Ok (Json.Obj fields) -> fields
      | Ok _ | Error _ -> []
    else []
  in
  (match List.assoc_opt key known with
  | Some (Json.String old) when old <> digest ->
    Printf.eprintf "perfbench: design digest of %s changed: %s -> %s\n%!" key old digest
  | Some _ | None -> ());
  let fields = (key, Json.String digest) :: List.remove_assoc key known in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string (Json.Obj fields)))

let main () =
  let cfg = parse_args () in
  (* A connection the daemon drops must fail one request, not the run. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let names = catalogue ~trace:cfg.trace in
  mkdir_p cfg.work_dir;
  let tally, quality, values = (List.assoc cfg.workload workloads) cfg in
  let digest = design_digest quality in
  note_digest cfg digest;
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name values with
        | Some v -> (name, Json.Obj [ ("value", Json.Number v); ("unit", Json.String unit) ])
        | None -> failwith ("workload does not report " ^ name))
      names
  in
  let num n = Json.Number (float_of_int n) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.String cfg.workload);
            ("seed", num cfg.seed);
            ("trace", Json.Bool cfg.trace);
            ("jobs", num cfg.jobs);
            ("design_digest", Json.String digest);
            ("area_sum", Json.Number (area_sum quality));
            ("feasible_count", num (feasible_count quality));
            ("tally", tally_json tally);
          ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (tally.failed = 0));
            ("attempted", num tally.attempted);
            ("failed", num tally.failed);
            ("metrics", Json.Obj metrics);
          ]))

let () =
  match main () with
  | () -> ()
  | exception Arg.Bad msg ->
    prerr_string msg;
    exit 2
  | exception e ->
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    exit 1
