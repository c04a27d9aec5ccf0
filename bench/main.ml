(* Experiment harness: regenerates every table and figure of the paper plus
   the ablations listed in DESIGN.md §4, and the wall-time sections gated
   by bench/gate.sh.

   Usage: dune exec bench/main.exe [-- section ...]
   Sections: table1 figure1 figure2 ablation-clique ablation-twostep
             ablation-policy ablation-battery ablation-fds ablation-shared
             ablation-rebind ablation-modulo sweep preflight serve overload
             obs scaling (default: all).

   Grid-shaped sections run through the Pchls_par.Pool domain pool and
   append wall-time/grid/cache records to BENCH_sweep.json. Every
   BENCH_*.json is written with Pchls_obs.Json. *)

module Graph = Pchls_dfg.Graph
module Op = Pchls_dfg.Op
module Benchmarks = Pchls_dfg.Benchmarks
module Generator = Pchls_dfg.Generator
module Library = Pchls_fulib.Library
module Module_spec = Pchls_fulib.Module_spec
module Profile = Pchls_power.Profile
module Schedule = Pchls_sched.Schedule
module Asap = Pchls_sched.Asap
module Pasap = Pchls_sched.Pasap
module Palap = Pchls_sched.Palap
module Two_step = Pchls_sched.Two_step
module Cgraph = Pchls_compat.Cgraph
module Clique = Pchls_compat.Clique
module Exact = Pchls_compat.Exact
module Engine = Pchls_core.Engine
module Design = Pchls_core.Design
module Model = Pchls_battery.Model
module Rakhmatov = Pchls_battery.Rakhmatov
module Sim = Pchls_battery.Sim
module Force_directed = Pchls_sched.Force_directed
module Explore = Pchls_core.Explore
module Pool = Pchls_par.Pool
module Store = Pchls_cache.Store
module Trace = Pchls_obs.Trace
module Metrics = Pchls_obs.Metrics
module Json = Pchls_obs.Json
module Http = Pchls_serve.Http

let section_header name = Format.printf "@.======== %s ========@.@." name

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let hit_rate = function
  | Some { Store.hits; misses; _ } when hits + misses > 0 ->
    float_of_int hits /. float_of_int (hits + misses)
  | Some _ | None -> 0.

let num f = Json.Number f
let int n = Json.Number (float_of_int n)

(* A gated record: bench/compare.exe matches "section" and gates
   "wall_s"; the other fields are context. *)
let section name wall_s fields =
  Json.Obj (("section", Json.String name) :: ("wall_s", num wall_s) :: fields)

(* A POST /synth body for a bundled benchmark. *)
let synth_body name t p =
  Json.to_string
    (Json.Obj [ ("benchmark", Json.String name); ("time", int t); ("power", num p) ])

let write_json path fields =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string (Json.Obj fields));
      output_char oc '\n');
  Format.printf "@.wrote %s@." path

let write_sections path sections =
  write_json path [ ("sections", Json.List sections) ]

(* Grid sections append one record each; written to BENCH_sweep.json at the
   end of the run so the perf trajectory is tracked across PRs. *)
let grid_records = ref []

let record ?cache_stats ~section:name ~wall_s ~grid ~pool_jobs () =
  grid_records :=
    section name wall_s
      [
        ("grid", int grid); ("jobs", int pool_jobs);
        ("hit_rate", num (hit_rate cache_stats));
        ( "cache",
          match cache_stats with
          | None -> Json.Null
          | Some { Store.hits; misses; stores; memory_hits; disk_hits; _ } ->
            Json.Obj
              [
                ("hits", int hits); ("misses", int misses);
                ("stores", int stores); ("memory_hits", int memory_hits);
                ("disk_hits", int disk_hits);
              ] );
      ]
    :: !grid_records

let table1_info g id =
  match Library.min_power Library.default (Graph.kind g id) with
  | Some m ->
    { Schedule.latency = m.Module_spec.latency; power = m.Module_spec.power }
  | None -> assert false

let synth ?policy g t p =
  Engine.run ?policy ~library:Library.default ~time_limit:t ~power_limit:p g

(* Rows of an ablation table computed in parallel on the domain pool,
   printed in order and recorded as one grid section. *)
let pooled_rows ~section grid row =
  let jobs = Domain.recommended_domain_count () in
  let rows, wall_s =
    timed (fun () -> Pool.with_pool ~jobs (fun pool -> Pool.map pool row grid))
  in
  List.iter (fun r -> Format.printf "%s@." r) rows;
  record ~section ~wall_s ~grid:(List.length grid) ~pool_jobs:jobs ()

(* --- Table 1: the functional-unit library ------------------------------ *)

let table1 () =
  section_header "Table 1: functional unit library";
  Format.printf "%a@." Library.pp_table Library.default

(* --- Figure 1: undesired vs desired power schedule --------------------- *)

let figure1 () =
  section_header "Figure 1: undesired vs desired power schedule (hal, T=17)";
  let g = Benchmarks.hal in
  let info = table1_info g in
  let horizon = 17 in
  let cap = 10. in
  let spiky = Asap.run g ~info in
  let flat =
    match Pasap.run g ~info ~horizon ~power_limit:cap () with
    | Pasap.Feasible s -> s
    | Pasap.Infeasible { reason; _ } -> failwith reason
  in
  let profile s = Schedule.profile s ~info ~horizon in
  Format.printf "undesired (ASAP): peak %.2f, energy %.1f@.%s@."
    (Profile.peak (profile spiky))
    (Profile.energy (profile spiky))
    (Profile.render ~width:40 ~limit:cap (profile spiky));
  Format.printf "desired (pasap, P< = %g): peak %.2f, energy %.1f@.%s@." cap
    (Profile.peak (profile flat))
    (Profile.energy (profile flat))
    (Profile.render ~width:40 ~limit:cap (profile flat));
  let battery =
    Model.kibam ~capacity:50_000. ~well_fraction:0.001 ~rate:0.0005
  in
  let life s =
    Sim.cycles
      (Sim.lifetime battery
         ~profile:(Profile.to_array (profile s))
         ~max_cycles:1_000_000_000)
  in
  Format.printf
    "battery lifetime (kibam low-quality cell): undesired %d cycles, desired \
     %d cycles (%+.1f%%)@."
    (life spiky) (life flat)
    (100.
    *. (float_of_int (life flat) -. float_of_int (life spiky))
    /. float_of_int (life spiky))

(* --- Figure 2: power vs area under different time constraints ---------- *)

let figure2_series =
  [
    ("hal", Benchmarks.hal, 10);
    ("hal", Benchmarks.hal, 17);
    ("cosine", Benchmarks.cosine, 12);
    ("cosine", Benchmarks.cosine, 15);
    ("cosine", Benchmarks.cosine, 19);
    ("elliptic", Benchmarks.elliptic, 22);
  ]

let figure2_powers =
  [ 2.5; 5.; 7.5; 10.; 12.5; 15.; 20.; 25.; 30.; 40.; 50.; 75.; 100.; 150. ]

(* Both figure-2 grids run through the domain pool: the plain grid as one
   Explore.sweep per series row, the tightening grid as pooled rows (each
   ladder is inherently sequential, rows are independent). *)
let figure2 () =
  section_header "Figure 2: power vs area under different time constraints";
  let jobs = Domain.recommended_domain_count () in
  let header () =
    Format.printf "%-14s" "series \\ P<";
    List.iter (fun p -> Format.printf "%7.1f" p) figure2_powers;
    Format.printf "@."
  in
  header ();
  let (), wall_s =
    timed (fun () ->
        List.iter
          (fun (name, g, t) ->
            Format.printf "%-8s T=%-3d" name t;
            List.iter
              (fun pt ->
                match pt.Explore.result with
                | Explore.Feasible { area; _ } -> Format.printf "%7.0f" area
                | Explore.Infeasible _ | Explore.Pruned _ ->
                  Format.printf "%7s" "-"
                | Explore.Failed _ -> Format.printf "%7s" "!")
              (Explore.sweep ~jobs ~library:Library.default g ~times:[ t ]
                 ~powers:figure2_powers);
            Format.printf "@.")
          figure2_series)
  in
  record ~section:"figure2" ~wall_s
    ~grid:(List.length figure2_series * List.length figure2_powers)
    ~pool_jobs:jobs ();
  Format.printf
    "@.(areas; '-' = infeasible under that power budget; compare the shape \
     with the paper's Figure 2: curves for tighter T sit higher and start at \
     larger P<)@.";
  Format.printf
    "@.same series with budget tightening (Explore.tighten — the engine \
     retried under a descending ladder of tighter budgets, keeping the \
     best area — flatter, though the ladder can still skip a sweet spot):@.@.";
  header ();
  let rows, wall_s =
    timed (fun () ->
        Pool.with_pool ~jobs (fun pool ->
            Pool.map pool
              (fun (name, g, t) ->
                let cells =
                  List.map
                    (fun p ->
                      match
                        Explore.tighten ~library:Library.default g
                          ~time_limit:t ~power_limit:p
                      with
                      | Ok d ->
                        Printf.sprintf "%7.0f" (Design.area d).Design.total
                      | Error _ -> Printf.sprintf "%7s" "-")
                    figure2_powers
                in
                Printf.sprintf "%-8s T=%-3d%s" name t (String.concat "" cells))
              figure2_series))
  in
  List.iter (fun row -> Format.printf "%s@." row) rows;
  record ~section:"figure2-tighten" ~wall_s
    ~grid:(List.length figure2_series * List.length figure2_powers)
    ~pool_jobs:jobs ()

(* --- Ablation A1: greedy vs exact clique partitioning ------------------ *)

(* Build the sharing compatibility graph of one operation kind under an ASAP
   schedule: vertices are ops, edges connect ops whose executions do not
   overlap, weighted by the module area saved. *)
let sharing_cgraph g info sched kind =
  let ops = Graph.nodes_of_kind g kind in
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let cg = Cgraph.create ~n in
  let area =
    match Library.min_power Library.default kind with
    | Some m -> m.Module_spec.area
    | None -> 0.
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = arr.(i) and b = arr.(j) in
      let ta = Schedule.start sched a and tb = Schedule.start sched b in
      let da = (info a).Schedule.latency and db = (info b).Schedule.latency in
      if ta + da <= tb || tb + db <= ta then Cgraph.add_edge cg i j area
    done
  done;
  cg

let ablation_clique () =
  section_header "Ablation A1: greedy vs exact clique partitioning";
  Format.printf "%-22s %8s %8s %8s %8s@." "instance" "vertices" "greedy"
    "exact" "gap";
  let compare_on name cg =
    let greedy = Clique.greedy ~merge_nonpositive:true cg in
    match Exact.partition ~objective:Exact.Min_cliques cg with
    | Some exact ->
      Format.printf "%-22s %8d %8d %8d %8d@." name (Cgraph.vertex_count cg)
        (List.length greedy) (List.length exact)
        (List.length greedy - List.length exact)
    | None ->
      Format.printf "%-22s %8d %8d %8s %8s@." name (Cgraph.vertex_count cg)
        (List.length greedy) "(big)" "-"
  in
  List.iter
    (fun (name, g) ->
      let info = table1_info g in
      let sched = Asap.run g ~info in
      List.iter
        (fun kind ->
          let cg = sharing_cgraph g info sched kind in
          if Cgraph.vertex_count cg > 1 then
            compare_on (Printf.sprintf "%s/%s" name (Op.to_string kind)) cg)
        [ Op.Add; Op.Mult ])
    [ ("hal", Benchmarks.hal); ("elliptic", Benchmarks.elliptic) ];
  List.iter
    (fun seed ->
      let g = Generator.layered ~seed ~layers:3 ~width:3 () in
      let info = table1_info g in
      let sched = Asap.run g ~info in
      let cg = sharing_cgraph g info sched Op.Add in
      if Cgraph.vertex_count cg > 1 then
        compare_on (Printf.sprintf "rand-%d/add" seed) cg)
    [ 1; 2; 3 ]

(* --- Ablation A2: simultaneous engine vs two-step baseline ------------- *)

let ablation_twostep () =
  section_header "Ablation A2: simultaneous synthesis vs two-step baseline";
  Format.printf "%-10s %4s %7s | %9s | %9s %9s@." "benchmark" "T" "P<"
    "two-step" "engine" "area";
  let row (name, g, t, p) =
    let info = table1_info g in
    let two =
      match Two_step.run g ~info ~horizon:t ~power_limit:p with
      | Pasap.Feasible _ -> "feasible"
      | Pasap.Infeasible _ -> "fails"
    in
    let engine, area =
      match synth g t p with
      | Engine.Synthesized (d, _) ->
        ("feasible", Printf.sprintf "%.0f" (Design.area d).Design.total)
      | Engine.Infeasible _ -> ("fails", "-")
    in
    Printf.sprintf "%-10s %4d %7.1f | %9s | %9s %9s" name t p two engine area
  in
  let grid =
    [
      ("hal", Benchmarks.hal, 17, 8.);
      ("hal", Benchmarks.hal, 17, 12.);
      ("hal", Benchmarks.hal, 10, 20.);
      ("cosine", Benchmarks.cosine, 19, 20.);
      ("cosine", Benchmarks.cosine, 12, 40.);
      ("elliptic", Benchmarks.elliptic, 22, 12.);
      ("elliptic", Benchmarks.elliptic, 22, 20.);
      ("ar_filter", Benchmarks.ar_filter, 30, 12.);
      ("fir16", Benchmarks.fir16, 30, 15.);
      ("diffeq2", Benchmarks.diffeq2, 30, 15.);
    ]
  in
  pooled_rows ~section:"ablation-twostep" grid row;
  Format.printf
    "@.(the two-step baseline separates scheduling from binding, so it can \
     only reorder a fixed-module schedule; the engine can also retrade \
     module types, hence its feasibility dominates)@."

(* --- Ablation A3: default-module policy --------------------------------- *)

let ablation_policy () =
  section_header "Ablation A3: default module selection policy";
  Format.printf "%-10s %4s %7s %12s %12s %12s@." "benchmark" "T" "P<"
    "min-power" "min-area" "min-latency";
  let row (name, g, t, p) =
    let area policy =
      match synth ~policy g t p with
      | Engine.Synthesized (d, _) ->
        Printf.sprintf "%.0f" (Design.area d).Design.total
      | Engine.Infeasible _ -> "-"
    in
    Printf.sprintf "%-10s %4d %7.1f %12s %12s %12s" name t p
      (area Engine.Min_power) (area Engine.Min_area) (area Engine.Min_latency)
  in
  let grid =
    [
      ("hal", Benchmarks.hal, 17, 10.);
      ("hal", Benchmarks.hal, 10, 25.);
      ("cosine", Benchmarks.cosine, 19, 25.);
      ("elliptic", Benchmarks.elliptic, 22, 15.);
      ("iir_biquad", Benchmarks.iir_biquad, 15, 10.);
    ]
  in
  pooled_rows ~section:"ablation-policy" grid row

(* --- Ablation A4: battery models on the Figure 1 profiles --------------- *)

let ablation_battery () =
  section_header "Ablation A4: battery models on the Figure 1 profiles";
  let g = Benchmarks.hal in
  let info = table1_info g in
  let horizon = 17 in
  let spiky = Asap.run g ~info in
  let flat =
    match Pasap.run g ~info ~horizon ~power_limit:10. () with
    | Pasap.Feasible s -> s
    | Pasap.Infeasible { reason; _ } -> failwith reason
  in
  let arr s = Profile.to_array (Schedule.profile s ~info ~horizon) in
  Format.printf "%-42s %12s %12s %9s@." "model" "spiky" "flat" "gain";
  List.iter
    (fun m ->
      let life p =
        Sim.cycles (Sim.lifetime m ~profile:p ~max_cycles:1_000_000_000)
      in
      let s = life (arr spiky) and f = life (arr flat) in
      Format.printf "%-42s %12d %12d %8.1f%%@."
        (Format.asprintf "%a" Model.pp m)
        s f
        (100. *. (float_of_int f -. float_of_int s) /. float_of_int s))
    [
      Model.ideal ~capacity:50_000.;
      Model.peukert ~capacity:50_000. ~exponent:1.3 ~reference:3.;
      Model.peukert ~capacity:50_000. ~exponent:1.8 ~reference:3.;
      Model.kibam ~capacity:50_000. ~well_fraction:0.05 ~rate:0.01;
      Model.kibam ~capacity:50_000. ~well_fraction:0.001 ~rate:0.0005;
    ];
  List.iter
    (fun beta ->
      let m = Rakhmatov.create ~alpha:50_000. ~beta () in
      let life p =
        Sim.cycles (Rakhmatov.lifetime m ~profile:p ~max_cycles:1_000_000_000)
      in
      let s = life (arr spiky) and f = life (arr flat) in
      Format.printf "%-42s %12d %12d %8.1f%%@."
        (Format.asprintf "%a" Rakhmatov.pp m)
        s f
        (100. *. (float_of_int f -. float_of_int s) /. float_of_int s))
    [ 0.5; 0.15 ];
  Format.printf
    "@.(the paper's refs report 20-30%% lifetime extension on low-quality \
     batteries; the low-quality kibam and slow-diffusion rakhmatov cells \
     reproduce that band)@."

(* --- Ablation A5: pasap vs power-weighted force-directed scheduling ----- *)

let ablation_fds () =
  section_header
    "Ablation A5: pasap vs power-weighted force-directed scheduling";
  Format.printf "%-10s %4s | %9s %9s %9s@." "benchmark" "T" "asap-peak"
    "fds-peak" "pasap<=P";
  List.iter
    (fun (name, g, t, p) ->
      let info = table1_info g in
      let peak s = Profile.peak (Schedule.profile s ~info ~horizon:t) in
      let asap_peak = peak (Asap.run g ~info) in
      let fds_peak =
        match
          Force_directed.run g ~info
            ~class_of:(fun _ -> "power")
            ~weight:(fun id -> (info id).Schedule.power)
            ~horizon:t ()
        with
        | Pasap.Feasible s -> Printf.sprintf "%.1f" (peak s)
        | Pasap.Infeasible _ -> "-"
      in
      let pasap_ok =
        match Pasap.run g ~info ~horizon:t ~power_limit:p () with
        | Pasap.Feasible s -> Printf.sprintf "%.1f" (peak s)
        | Pasap.Infeasible _ -> "-"
      in
      Format.printf "%-10s %4d | %9.1f %9s %9s@." name t asap_peak fds_peak
        pasap_ok)
    [
      ("hal", Benchmarks.hal, 17, 10.);
      ("cosine", Benchmarks.cosine, 19, 20.);
      ("elliptic", Benchmarks.elliptic, 22, 12.);
      ("ar_filter", Benchmarks.ar_filter, 25, 12.);
      ("fir16", Benchmarks.fir16, 25, 15.);
    ];
  Format.printf
    "@.(force-directed scheduling with power-weighted distribution graphs \
     flattens the profile but cannot honour a hard cap; pasap guarantees \
     the budget it is given)@."

(* --- Ablation A6: multi-behaviour datapath sharing ----------------------- *)

let ablation_shared () =
  section_header "Ablation A6: multi-behaviour datapath sharing";
  let behaviours =
    [
      { Pchls_core.Shared.label = "fir16"; graph = Benchmarks.fir16; time_limit = 25 };
      { Pchls_core.Shared.label = "iir_biquad"; graph = Benchmarks.iir_biquad; time_limit = 16 };
      { Pchls_core.Shared.label = "haar8"; graph = Benchmarks.haar8; time_limit = 12 };
      { Pchls_core.Shared.label = "fft4"; graph = Benchmarks.fft4; time_limit = 10 };
    ]
  in
  match
    Pchls_core.Shared.synthesize ~library:Library.default ~power_limit:15.
      behaviours
  with
  | Ok t ->
    Format.printf "%a@." Pchls_core.Shared.pp t;
    Format.printf
      "@.(four mutually exclusive DSP behaviours synthesized onto one \
       datapath by seeding each run with the previous pool; the engine \
       reuses modules across behaviours)@."
  | Error e -> Format.printf "failed: %s@." e

(* --- Ablation A7: post-synthesis rebinding improvement ------------------- *)

let ablation_rebind () =
  section_header "Ablation A7: post-synthesis rebinding improvement";
  Format.printf "%-10s %4s %7s | %9s %9s %9s@." "benchmark" "T" "P<"
    "greedy" "rebound" "saved";
  List.iter
    (fun (name, g, t, p) ->
      match synth g t p with
      | Engine.Infeasible _ -> Format.printf "%-10s %4d %7.1f | infeasible@." name t p
      | Engine.Synthesized (d, _) ->
        let d' =
          Pchls_core.Improve.rebind ~cost_model:Pchls_core.Cost_model.default d
        in
        let a = (Design.area d).Design.total
        and a' = (Design.area d').Design.total in
        Format.printf "%-10s %4d %7.1f | %9.0f %9.0f %8.1f%%@." name t p a a'
          (100. *. (a -. a') /. a))
    [
      ("hal", Benchmarks.hal, 17, 10.);
      ("hal", Benchmarks.hal, 10, 25.);
      ("cosine", Benchmarks.cosine, 19, 25.);
      ("elliptic", Benchmarks.elliptic, 22, 15.);
      ("ar_filter", Benchmarks.ar_filter, 30, 12.);
      ("fir16", Benchmarks.fir16, 25, 15.);
    ];
  Format.printf
    "@.(the hill-climbing rebind keeps every start time and both \
     constraints; it only re-hosts operations to cut mux and register \
     costs the greedy engine priced coarsely)@."

(* --- Ablation A8: power-constrained pipelining (modulo scheduling) ------- *)

let ablation_modulo () =
  section_header
    "Ablation A8: power-constrained pipelining (modulo scheduling)";
  Format.printf "%-10s %7s | %10s %12s %9s@." "benchmark" "P<" "sequential"
    "min interval" "speedup";
  List.iter
    (fun (name, g, p) ->
      let info = table1_info g in
      let sequential =
        match Pasap.run g ~info ~horizon:300 ~power_limit:p () with
        | Pasap.Feasible s -> Schedule.makespan s ~info
        | Pasap.Infeasible _ -> -1
      in
      match
        Pchls_sched.Modulo.min_feasible_ii g ~info ~horizon:300 ~power_limit:p
      with
      | Some (ii, _) when sequential > 0 ->
        Format.printf "%-10s %7.1f | %10d %12d %8.1fx@." name p sequential ii
          (float_of_int sequential /. float_of_int ii)
      | Some _ | None -> Format.printf "%-10s %7.1f | infeasible@." name p)
    [
      ("hal", Benchmarks.hal, 10.);
      ("cosine", Benchmarks.cosine, 15.);
      ("elliptic", Benchmarks.elliptic, 15.);
      ("fir16", Benchmarks.fir16, 12.);
      ("ar_filter", Benchmarks.ar_filter, 12.);
    ];
  Format.printf
    "@.(the initiation interval is how often a new iteration may start; the \
     folded steady-state profile respects the same per-cycle power cap, so \
     pipelining buys throughput without raising the peak — the paper's \
     approach extended to overlapped iterations)@."

(* --- Parallel, cache-backed sweep --------------------------------------- *)

(* The figure-2 grid grouped per graph, as (name, graph, times) so one
   Explore.sweep covers a whole times x powers rectangle. *)
let sweep_grids =
  [
    ("hal", Benchmarks.hal, [ 10; 17 ]);
    ("cosine", Benchmarks.cosine, [ 12; 15; 19 ]);
    ("elliptic", Benchmarks.elliptic, [ 22 ]);
  ]

let point_signature pt =
  Printf.sprintf "T=%d P<=%h %s" pt.Explore.time_limit pt.Explore.power_limit
    (match pt.Explore.result with
    | Explore.Feasible { area; peak; design } ->
      Printf.sprintf "area=%h peak=%h makespan=%d" area peak
        (Design.makespan design)
    | Explore.Infeasible reason -> "infeasible: " ^ reason
    | Explore.Pruned reason -> "pruned: " ^ reason
    | Explore.Failed reason -> "failed: " ^ reason)

(* The parallel leg uses recommended_domain_count: more domains than cores
   makes OCaml 5 minor-GC synchronization dominate, so oversubscribing
   would benchmark the scheduler, not the sweep. On a single-core host the
   pool therefore runs inline and the speedup reads ~1.0x; the
   jobs-invariance of the results is covered by the qcheck properties. *)
let sweep_bench () =
  section_header "Parallel, cache-backed design-space sweep";
  let jobs = Domain.recommended_domain_count () in
  let grid_size =
    List.fold_left
      (fun acc (_, _, times) ->
        acc + (List.length times * List.length figure2_powers))
      0 sweep_grids
  in
  let run_all ?cache ~jobs () =
    List.concat_map
      (fun (_, g, times) ->
        Explore.sweep ~jobs ?cache ~library:Library.default g ~times
          ~powers:figure2_powers)
      sweep_grids
  in
  let sequential, t_seq = timed (fun () -> run_all ~jobs:1 ()) in
  record ~section:"sweep-sequential" ~wall_s:t_seq ~grid:grid_size
    ~pool_jobs:1 ();
  let parallel, t_par = timed (fun () -> run_all ~jobs ()) in
  record ~section:"sweep-parallel" ~wall_s:t_par ~grid:grid_size
    ~pool_jobs:jobs ();
  let same_points =
    List.for_all2 (fun a b ->
        String.equal (point_signature a) (point_signature b))
  in
  let identical = same_points sequential parallel in
  let store = Store.in_memory () in
  let _, t_cold = timed (fun () -> run_all ~cache:store ~jobs ()) in
  let cold = Store.stats store in
  record ~section:"sweep-cache-cold" ~cache_stats:cold ~wall_s:t_cold
    ~grid:grid_size ~pool_jobs:jobs ();
  let rerun, t_warm = timed (fun () -> run_all ~cache:store ~jobs ()) in
  let warm = Store.stats store in
  let warm_only =
    {
      Store.hits = warm.Store.hits - cold.Store.hits;
      misses = warm.Store.misses - cold.Store.misses;
      stores = warm.Store.stores - cold.Store.stores;
      memory_hits = warm.Store.memory_hits - cold.Store.memory_hits;
      disk_hits = warm.Store.disk_hits - cold.Store.disk_hits;
      corrupt = warm.Store.corrupt - cold.Store.corrupt;
      degraded = warm.Store.degraded;
      evictions = warm.Store.evictions - cold.Store.evictions;
    }
  in
  record ~section:"sweep-cache-warm" ~cache_stats:warm_only ~wall_s:t_warm
    ~grid:grid_size ~pool_jobs:jobs ();
  let cached_identical = same_points sequential rerun in
  Format.printf "grid: %d points (figure-2 series), jobs=%d@." grid_size jobs;
  Format.printf "sequential            %8.3f s@." t_seq;
  Format.printf "parallel              %8.3f s  (speedup %.2fx, identical: %b)@."
    t_par (t_seq /. t_par) identical;
  Format.printf "cache cold (parallel) %8.3f s  (%a)@." t_cold Store.pp_stats
    cold;
  Format.printf
    "cache warm (parallel) %8.3f s  (%a, hit rate %.0f%%, identical: %b)@."
    t_warm Store.pp_stats warm_only
    (100. *. hit_rate (Some warm_only))
    cached_identical;
  if not (identical && cached_identical) then begin
    Format.eprintf "sweep-bench: parallel or cached sweep diverged!@.";
    exit 1
  end

(* --- Preflight: bounds cost and sweep-pruning win ------------------------ *)

(* Two questions, both recorded in BENCH_preflight.json (gated by
   bench/compare.exe like the sweep records):

   1. What does one static bound analysis cost next to one engine run, from
      the paper's benches up to ~1000-node generated DAGs? (The pruning
      economics: a prune is worth it when the analysis is far cheaper than
      the run it saves.)
   2. What does --preflight save on an infeasibility-heavy constraint grid,
      and is it sound? Every pruned point is cross-checked against the
      unpruned baseline sweep — a prune of a point the engine can solve
      exits 1. *)
let preflight_bench () =
  section_header "Preflight: static bounds cost and sweep-pruning win";
  let module Preflight = Pchls_preflight.Preflight in
  let records = ref [] in
  let bounds_case (name, g, t, p) =
    let reps = 20 in
    let (), pf_total = timed (fun () ->
        for _ = 1 to reps do
          ignore
            (Preflight.analyze ~exact_max_vertices:0 ~library:Library.default
               ~time_limit:t ~power_limit:p g)
        done)
    in
    let pf_s = pf_total /. float_of_int reps in
    let _, eng_s = timed (fun () -> synth g t p) in
    Format.printf
      "%-12s %5d nodes  bounds %9.6f s  engine %8.3f s  (engine/bounds %.0fx)@."
      name (Graph.node_count g) pf_s eng_s (eng_s /. pf_s);
    records :=
      section ("preflight-bounds-" ^ name) pf_s
        [ ("engine_s", num eng_s); ("nodes", int (Graph.node_count g)) ]
      :: !records
  in
  let sized_case ~seed ~layers ~width =
    (* Generator.sized caps its random shapes at ~24 operations (the
       fuzzer's territory); the scalability points reuse its layered
       backend directly to reach the target node counts. *)
    let g = Generator.layered ~seed ~layers ~width () in
    let info = table1_info g in
    let cp =
      Graph.critical_path g ~latency:(fun id -> (info id).Schedule.latency)
    in
    (Printf.sprintf "rand-%d" (Graph.node_count g), g, cp * 2, 15.)
  in
  List.iter bounds_case
    [
      ("hal", Benchmarks.hal, 17, 10.);
      ("cosine", Benchmarks.cosine, 19, 25.);
      sized_case ~seed:11 ~layers:14 ~width:10;
      sized_case ~seed:13 ~layers:55 ~width:30;
    ];
  (* Infeasibility-heavy grid: the low-power band is dominated by points no
     engine run can satisfy (PRE001 below every module's draw, PRE004 when
     T*P< is under the energy floor) — exactly what pruning should skip.
     The generated 300-node row is where the savings live: its whole power
     ladder sits under the energy floor (boundary ~P<37 at T=34), and the
     engine burns up to ~0.7 s per point discovering that dynamically while
     the bound analysis certifies it in ~1 ms. *)
  let jobs = Domain.recommended_domain_count () in
  let band_powers = [ 2.5; 5.; 7.5; 10.; 12.5; 15.; 17.5; 20. ] in
  let grids =
    [
      (Benchmarks.hal, [ 10; 17 ], band_powers);
      (Benchmarks.cosine, [ 19 ], band_powers);
      (Benchmarks.elliptic, [ 22 ], band_powers);
      (Generator.layered ~seed:29 ~layers:25 ~width:14 (), [ 34 ], band_powers);
    ]
  in
  let grid_size =
    List.fold_left
      (fun acc (_, ts, ps) -> acc + (List.length ts * List.length ps))
      0 grids
  in
  let run ~preflight () =
    List.concat_map
      (fun (g, times, powers) ->
        Explore.sweep ~jobs ~preflight ~library:Library.default g ~times
          ~powers)
      grids
  in
  let base, t_base = timed (run ~preflight:false) in
  let pruned, t_pruned = timed (run ~preflight:true) in
  let false_prunes =
    List.fold_left2
      (fun acc b p ->
        match (b.Explore.result, p.Explore.result) with
        | Explore.Feasible _, Explore.Pruned reason -> (b, reason) :: acc
        | _ -> acc)
      [] base pruned
  in
  let count f l = List.length (List.filter f l) in
  let n_pruned =
    count (fun p -> match p.Explore.result with Explore.Pruned _ -> true | _ -> false) pruned
  in
  let n_infeasible =
    count
      (fun p ->
        match p.Explore.result with
        | Explore.Infeasible _ | Explore.Pruned _ -> true
        | Explore.Feasible _ | Explore.Failed _ -> false)
      base
  in
  let infeasible_fraction = float_of_int n_infeasible /. float_of_int grid_size in
  let win_pct = 100. *. (t_base -. t_pruned) /. t_base in
  Format.printf
    "@.grid: %d points, %d infeasible (%.0f%%), %d statically pruned@."
    grid_size n_infeasible (100. *. infeasible_fraction) n_pruned;
  Format.printf "sweep without pruning %8.3f s@." t_base;
  Format.printf "sweep with --preflight %7.3f s  (win %.1f%%)@." t_pruned
    win_pct;
  records :=
    section "preflight-sweep-pruned" t_pruned
      [
        ("grid", int grid_size); ("jobs", int jobs);
        ("pruned", int n_pruned); ("win_pct", num win_pct);
      ]
    :: section "preflight-sweep-baseline" t_base
         [
           ("grid", int grid_size); ("jobs", int jobs);
           ("infeasible_fraction", num infeasible_fraction);
         ]
    :: !records;
  write_sections "BENCH_preflight.json" (List.rev !records);
  if false_prunes <> [] then begin
    List.iter
      (fun (pt, reason) ->
        Format.eprintf
          "preflight-bench: FALSE PRUNE at T=%d P<=%g (engine found a \
           design; certificate: %s)@."
          pt.Explore.time_limit pt.Explore.power_limit reason)
      false_prunes;
    exit 1
  end

(* --- Observability: tracing overhead and metrics dump ------------------- *)

(* Measures what each recorder costs: the same synthesis with nothing
   watching (the zero-observer path), with an unbounded trace recorder
   installed, and with a bounded flight ring installed; writes the traced
   run's counters and a compare.exe-gated "sections" array to
   BENCH_obs.json. The flight leg is the always-on price `pchls serve`
   pays — it must stay within a few percent of untraced. *)
let obs_bench () =
  section_header "Observability: tracing overhead (elliptic, T=22, P<=15)";
  let g = Benchmarks.elliptic and t = 22 and p = 15. in
  let reps = 5 in
  let run () =
    for _ = 1 to reps do
      ignore (synth g t p)
    done
  in
  let recorded_before = Trace.total_recorded () in
  let (), plain_s = timed run in
  assert (Trace.total_recorded () = recorded_before);
  Metrics.reset ();
  let sink = Trace.make () in
  let (), traced_s = timed (fun () -> Trace.with_sink sink run) in
  let events = Trace.count sink in
  let ring = Trace.make ~capacity:Trace.default_capacity () in
  let (), flight_s = timed (fun () -> Trace.with_sink ring run) in
  let overhead_pct = 100. *. ((traced_s /. plain_s) -. 1.) in
  let flight_pct = 100. *. ((flight_s /. plain_s) -. 1.) in
  Format.printf "untraced (%d runs)  %8.3f s@." reps plain_s;
  Format.printf "traced   (%d runs)  %8.3f s  (%+.1f%%, %d events)@." reps
    traced_s overhead_pct events;
  Format.printf "flight   (%d runs)  %8.3f s  (%+.1f%%, %d recorded, %d \
                 retained, %d dropped)@."
    reps flight_s flight_pct (Trace.count ring) (Trace.retained ring)
    (Trace.dropped ring);
  let counter name =
    Metrics.counter_value (Metrics.counter name)
  in
  List.iter
    (fun name -> Format.printf "%-24s %8d@." name (counter name))
    [
      "engine.iterations"; "engine.backtracks"; "clique.gain_evaluated";
      "pasap.offset_delays";
    ];
  write_json "BENCH_obs.json"
    [
      ("benchmark", Json.String "elliptic"); ("t", int t); ("p", num p);
      ("reps", int reps); ("plain_s", num plain_s);
      ("traced_s", num traced_s); ("flight_s", num flight_s);
      ("overhead_pct", num overhead_pct);
      ("flight_overhead_pct", num flight_pct);
      ("trace_events", int events);
      ("flight_recorded", int (Trace.count ring));
      ("flight_retained", int (Trace.retained ring));
      ("flight_dropped", int (Trace.dropped ring));
      ( "sections",
        Json.List
          [
            section "obs-untraced" plain_s [];
            section "obs-traced" traced_s [];
            section "obs-flight" flight_s [];
          ] );
      ( "metrics",
        match Json.parse (Metrics.to_json ()) with
        | Ok metrics -> metrics
        | Error _ -> Json.Null );
    ]

(* --- Serve: load generator over the HTTP daemon -------------------------- *)

(* [closed_loop ~clients ~requests call] makes [requests] calls from
   [clients] threads, each starting its next call when the previous one
   returns; [call id] is client [id]'s call, given the call's index.
   Returns the per-call latencies (by index) and the wall time. *)
let closed_loop ~clients ~requests call =
  let latencies = Array.make requests 0. in
  let next = Atomic.make 0 in
  let client id =
    let call = call id in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < requests then begin
        let t0 = Unix.gettimeofday () in
        call i;
        latencies.(i) <- Unix.gettimeofday () -. t0;
        go ()
      end
    in
    go ()
  in
  let (), wall_s =
    timed (fun () ->
        List.iter Thread.join (List.init clients (Thread.create client)))
  in
  (latencies, wall_s)

(* Nearest-rank order statistic of unsorted [samples]. *)
let percentile samples p =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

(* Drives an in-process pchls serve instance with a zipf-distributed
   workload over the paper benchmarks × a constraint grid — the skew
   models a fleet re-synthesizing a few hot configurations plus a long
   tail, which is exactly what the coalescing + LRU cache tiers are for.
   Emits BENCH_serve.json (req/s, p50/p99 latency, cache hit rate),
   gated in CI by bench/compare.exe against bench/serve_baseline.json. *)
let serve_bench () =
  section_header "Serve: zipf load over the benchmark corpus";
  let module Server = Pchls_serve.Server in
  (* benchmarks × {loose, tight} time × three power budgets = 36 items *)
  let corpus =
    List.concat_map
      (fun (name, t_lo, t_hi) ->
        List.concat_map
          (fun t -> List.map (synth_body name t) [ 10.; 25.; 60. ])
          [ t_lo; t_hi ])
      [
        ("hal", 8, 17); ("cosine", 19, 26); ("ar_filter", 12, 18);
        ("fir16", 10, 16); ("iir_biquad", 8, 14); ("diffeq2", 6, 12);
      ]
  in
  let items = Array.of_list corpus in
  let n_items = Array.length items in
  (* Zipf(s=1) over item ranks: rank 1 dominates, long tail thereafter. *)
  let cumulative =
    let w = Array.init n_items (fun i -> 1. /. float_of_int (i + 1)) in
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  let zipf rng =
    let u = Random.State.float rng 1. in
    let rec find i =
      if i >= n_items - 1 || u <= cumulative.(i) then i else find (i + 1)
    in
    items.(find 0)
  in
  let jobs = Domain.recommended_domain_count () in
  let threads = 8 and clients = 8 and requests = 240 in
  let srv =
    Server.start
      {
        Server.default_config with
        Server.port = 0;
        threads;
        jobs;
        cache_mem_entries = Some 4096;
      }
  in
  let port = Server.port srv in
  let statuses = Array.make requests 0 in
  let coalesced_counter = Metrics.counter "serve.coalesced" in
  let coalesced0 = Metrics.counter_value coalesced_counter in
  let latencies, wall_s =
    closed_loop ~clients ~requests (fun id ->
        let rng = Random.State.make [| 0xbeef; id |] in
        fun i ->
          statuses.(i) <-
            (Http.call ~port ~meth:"POST" ~path:"/synth" (zipf rng)).Http.status)
  in
  let stats =
    match Server.store srv with
    | Some store -> Store.stats store
    | None -> assert false
  in
  Server.stop srv;
  let p50_ms = 1000. *. percentile latencies 0.50
  and p99_ms = 1000. *. percentile latencies 0.99 in
  let req_per_s = float_of_int requests /. wall_s in
  let coalesced = Metrics.counter_value coalesced_counter - coalesced0 in
  let count status =
    Array.fold_left (fun n s -> if s = status then n + 1 else n) 0 statuses
  in
  let ok = count 200 and infeasible = count 422 in
  let errors = requests - ok - infeasible in
  let rate = hit_rate (Some stats) in
  Format.printf
    "%d requests, %d clients, %d handler threads, %d worker domains@."
    requests clients threads jobs;
  Format.printf "wall %.3f s  (%.1f req/s)@." wall_s req_per_s;
  Format.printf "latency p50 %.2f ms  p99 %.2f ms@." p50_ms p99_ms;
  Format.printf "statuses: %d feasible, %d infeasible, %d other@." ok
    infeasible errors;
  Format.printf "cache: %d hits / %d misses (%.0f%% hit rate), %d coalesced@."
    stats.Store.hits stats.Store.misses (100. *. rate) coalesced;
  write_sections "BENCH_serve.json"
    [
      section "serve-load" wall_s
        [
          ("requests", int requests); ("clients", int clients);
          ("threads", int threads); ("jobs", int jobs);
          ("req_per_s", num req_per_s); ("p50_ms", num p50_ms);
          ("p99_ms", num p99_ms); ("hit_rate", num rate);
          ("coalesced", int coalesced); ("status_200", int ok);
          ("status_422", int infeasible); ("status_other", int errors);
        ];
    ];
  if errors > 0 then begin
    Format.eprintf "serve-bench: %d request(s) answered neither 200 nor 422@."
      errors;
    exit 1
  end

(* --- Overload: open-loop load at 2x capacity ---------------------------- *)

(* What does the daemon do when offered twice the load it can serve?
   Calibrates uncontended capacity closed-loop (cache off, so every
   request costs real engine work), then drives an open-loop arrival
   process at 2x that rate against a deliberately small admission queue
   with degradation armed. Emits BENCH_overload.json (goodput, shed
   rate, admitted/shed p99 — wall_s gated by compare.exe against
   bench/overload_baseline.json) and enforces the overload contract
   directly: every request is answered (no daemon crash, no connection
   reset), shed responses return in under 5 ms, and the p99 of admitted
   requests stays within 2x the uncontended p99 — the queue-age bound
   and the degrade tiers are doing their jobs. *)
let overload_bench () =
  section_header "Overload: open-loop load at 2x capacity";
  let module Server = Pchls_serve.Server in
  let body = synth_body "cosine" 19 25. in
  let stale = Json.String "request waited too long in the admission queue" in
  (* Returns the status (0 on any transport failure — a daemon crash
     would show up here) and whether the answer was served degraded or
     stale. *)
  let one_request port =
    try
      let r = Http.call ~port ~meth:"POST" ~path:"/synth" body in
      let reason =
        match Json.parse r.Http.body with
        | Ok json -> Json.member "reason" json
        | Error _ -> None
      in
      ( r.Http.status,
        Http.header r.Http.headers "x-pchls-degraded" <> None,
        reason = Some stale )
    with _ -> (0, false, false)
  in
  (* At least two worker domains even on a one-CPU host: with jobs = 1
     the engine computes inline on handler sys-threads, pinning the main
     domain's runtime lock for tens of ms at a time — the acceptor (and
     its sub-ms shed path) must never sit behind that. *)
  let jobs = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let threads = 4 in
  let base =
    { Server.default_config with Server.port = 0; threads; jobs; cache = false }
  in
  (* Calibration: closed-loop at handler-thread concurrency, no queueing
     beyond capacity — the uncontended service rate and p99. *)
  let calib_n = 48 in
  let calib = Server.start base in
  let cport = Server.port calib in
  for _ = 1 to 4 do
    ignore (one_request cport)
  done;
  let calib_lat, calib_wall =
    closed_loop ~clients:threads ~requests:calib_n (fun _ _ ->
        ignore (one_request cport))
  in
  Server.stop calib;
  let capacity_rps = float_of_int calib_n /. calib_wall in
  let unc_p99 = percentile calib_lat 0.99 in
  Format.printf "uncontended: %.1f req/s, p99 %.2f ms@." capacity_rps
    (1000. *. unc_p99);
  (* The overload target: a small queue whose age bound sits under the
     uncontended p99, so admitted latency = bounded wait + service stays
     within the 2x contract, with the degrade tiers armed. *)
  let srv =
    Server.start
      {
        base with
        Server.max_queue = 8;
        queue_age_ms = Float.max 10. (330. *. unc_p99);
        shed_threshold = 0.5;
        degrade_deadline_ms = 25.;
        max_deadline_ms = Some 2000.;
      }
  in
  let port = Server.port srv in
  let requests = 96 in
  let interarrival = 1. /. (2. *. capacity_rps) in
  let latencies = Array.make requests 0. in
  let statuses = Array.make requests 0 in
  let degraded_flags = Array.make requests false in
  let stale_flags = Array.make requests false in
  let (), wall_s =
    timed (fun () ->
        let t_start = Unix.gettimeofday () in
        let workers =
          List.init requests (fun i ->
              (* Open loop: arrivals are paced by the wall clock, not by
                 responses — the defining property of overload. *)
              let due = t_start +. (float_of_int i *. interarrival) in
              let wait = due -. Unix.gettimeofday () in
              if wait > 0. then Thread.delay wait;
              Thread.create
                (fun () ->
                  let t0 = Unix.gettimeofday () in
                  let status, degraded, stale = one_request port in
                  latencies.(i) <- Unix.gettimeofday () -. t0;
                  statuses.(i) <- status;
                  degraded_flags.(i) <- degraded;
                  stale_flags.(i) <- stale)
                ())
        in
        List.iter Thread.join workers)
  in
  Server.stop srv;
  let select pred =
    let picked = ref [] in
    Array.iteri
      (fun i s -> if pred i s then picked := latencies.(i) :: !picked)
      statuses;
    Array.of_list !picked
  in
  let admitted = select (fun _ s -> s = 200 || s = 206 || s = 422) in
  (* Queue-full rejections answer without ever queueing; CoDel stale
     drops spent up to queue_age_ms waiting before their 503, so the
     client-observed split matters for the 5 ms contract below. *)
  let shed_fast = select (fun i s -> s = 503 && not stale_flags.(i)) in
  let shed_stale = select (fun i s -> s = 503 && stale_flags.(i)) in
  let n_admitted = Array.length admitted in
  let n_fast = Array.length shed_fast and n_stale = Array.length shed_stale in
  let n_shed = n_fast + n_stale in
  let other = requests - n_admitted - n_shed in
  let n_degraded =
    Array.fold_left (fun n d -> if d then n + 1 else n) 0 degraded_flags
  in
  let goodput_rps = float_of_int n_admitted /. wall_s in
  let admitted_p99 =
    if n_admitted = 0 then 0. else percentile admitted 0.99
  in
  let shed_p99 = if n_fast = 0 then 0. else percentile shed_fast 0.99 in
  (* Server-side accept->503-written worst case: the "shedding costs
     milliseconds" contract, free of the client-thread scheduling noise a
     one-CPU in-process harness adds to round-trip times. *)
  let shed_server_max_ms = Metrics.gauge_value (Metrics.gauge "serve.shed_max_ms") in
  Format.printf
    "%d requests at %.1f req/s (2x capacity), %d threads, %d worker domains@."
    requests (2. *. capacity_rps) threads jobs;
  Format.printf
    "admitted %d (%.1f req/s goodput, %d degraded), shed %d (%d at the door, \
     %d stale), other %d@."
    n_admitted goodput_rps n_degraded n_shed n_fast n_stale other;
  Format.printf
    "p99: admitted %.2f ms, shed-at-the-door %.2f ms (server-side max \
     %.2f ms)@."
    (1000. *. admitted_p99) (1000. *. shed_p99) shed_server_max_ms;
  write_sections "BENCH_overload.json"
    [
      section "overload" wall_s
        [
          ("requests", int requests); ("threads", int threads);
          ("jobs", int jobs); ("capacity_rps", num capacity_rps);
          ("uncontended_p99_ms", num (1000. *. unc_p99));
          ("admitted", int n_admitted); ("shed", int n_shed);
          ("shed_fast", int n_fast); ("shed_stale", int n_stale);
          ("degraded", int n_degraded); ("status_other", int other);
          ("goodput_rps", num goodput_rps);
          ("admitted_p99_ms", num (1000. *. admitted_p99));
          ("shed_p99_ms", num (1000. *. shed_p99));
          ("shed_server_max_ms", num shed_server_max_ms);
        ];
    ];
  (* The overload contract, enforced: answered, fast sheds, bounded
     admitted tail. *)
  if other > 0 then begin
    Format.eprintf
      "overload-bench: %d request(s) got no well-formed answer under load@."
      other;
    exit 1
  end;
  if n_fast > 0 && shed_server_max_ms > 5. then begin
    Format.eprintf
      "overload-bench: worst server-side shed %.2f ms exceeds the 5 ms bound@."
      shed_server_max_ms;
    exit 1
  end;
  (* 2x the uncontended p99, with a 10 ms floor on the reference and a
     15 ms grace on the bound: both p99s are single-digit-sample order
     statistics and the harness shares one process (and possibly one
     CPU) between 96 client threads and the server — the same reasoning
     as compare.ml's noise floor. *)
  let admitted_bound = (2. *. Float.max unc_p99 0.010) +. 0.015 in
  if n_admitted > 0 && admitted_p99 > admitted_bound then begin
    Format.eprintf
      "overload-bench: admitted p99 %.2f ms exceeds 2x uncontended (%.2f ms)@."
      (1000. *. admitted_p99)
      (1000. *. admitted_bound);
    exit 1
  end

(* --- Scaling: 100/1k/10k-node random DFGs ------------------------------ *)

(* Times the hot paths the engine rewrite targets, on fixed-seed
   [Generator.sized] graphs at 100, 1k and 10k operation nodes: the
   pasap/palap schedulers on all three legs, the full engine on the 100-
   and 1k-node legs. The 10k leg is schedulers-only by design — the
   engine re-validates every commit by re-running both schedulers, so a
   full 10k run is O(n) scheduler re-runs (minutes of wall time) and
   tells the gate nothing the 1k leg doesn't. A scheduler leg times
   [sched_calls] back-to-back calls: one 10k-node call takes 20-35 ms in
   the dev profile, below compare.exe's 50 ms noise floor, and twenty
   take 0.4-0.7 s. Each leg runs [leg_runs] times and records the
   fastest run as the gated "wall_s" and the median as "median_s": the
   minimum is the run the host disturbed least. Every record also carries
   the leg's answer as "result", which compare.exe checks before any time:
   an engine leg's area, decision counts and design digest, a scheduler
   leg's digest of one call's bindings and the offset delays that call
   counted. Writes a compare.exe-gated "sections" array to
   BENCH_scaling.json. *)
let sched_calls = 20
let leg_runs = 3
let offset_delays = Metrics.counter "pasap.offset_delays"
let digest s = Json.String (Digest.to_hex (Digest.string s))

let scaling_bench () =
  section_header "Scaling: scheduler/engine wall time on sized DFGs (P<=40)";
  let records = ref [] in
  let leg ~label ~max_nodes ~seed ~engine =
    let g = Generator.sized ~seed ~max_nodes () in
    let info = table1_info g in
    let latency id = (info id).Schedule.latency in
    let cp = Graph.critical_path g ~latency in
    let nodes = Graph.node_count g in
    let horizon = (cp * 2) + (nodes / 4) in
    let power_limit = 40. in
    let add ?(extra = []) ~result name (wall_s, median_s) =
      records :=
        section name wall_s
          ([
             ("median_s", num median_s); ("nodes", int nodes);
             ("horizon", int horizon);
           ]
          @ extra
          @ [ ("result", Json.Obj result) ])
        :: !records
    in
    (* Each run starts from a compacted heap, so no run pays on its clock
       for collecting an earlier one's garbage. The outcome is the first
       run's; the runs are deterministic. *)
    let timed_leg f =
      let runs =
        List.init leg_runs (fun _ ->
            Gc.compact ();
            timed f)
      in
      let times = List.sort Float.compare (List.map snd runs) in
      (fst (List.hd runs), (List.hd times, List.nth times (leg_runs / 2)))
    in
    let sched name run =
      let (), ((wall_s, median_s) as t) =
        timed_leg (fun () ->
            for _ = 1 to sched_calls do
              ignore (run ())
            done)
      in
      let before = Metrics.counter_value offset_delays in
      let bindings =
        match run () with
        | Pasap.Feasible s -> Schedule.bindings s
        | Pasap.Infeasible { reason; _ } ->
          Format.eprintf "scaling: %s-%s infeasible: %s@." name label reason;
          exit 1
      in
      let delays = Metrics.counter_value offset_delays - before in
      Format.printf
        "%-14s %8.3fs  (median %.3fs; %d nodes, horizon %d, %d calls)@."
        (Printf.sprintf "%s-%s" name label)
        wall_s median_s nodes horizon sched_calls;
      add
        ~extra:[ ("calls", int sched_calls) ]
        ~result:
          [
            ( "bindings",
              digest
                (String.concat " "
                   (List.map (fun (id, t) -> Printf.sprintf "%d:%d" id t)
                      bindings)) );
            ("offset_delays", int delays);
          ]
        (Printf.sprintf "scaling-%s-%s" name label)
        t
    in
    sched "pasap" (fun () -> Pasap.run g ~info ~horizon ~power_limit ());
    sched "palap" (fun () -> Palap.run g ~info ~horizon ~power_limit ());
    if engine then
      let outcome, ((wall_s, median_s) as t) =
        timed_leg (fun () ->
            Engine.run ~library:Library.default ~time_limit:horizon
              ~power_limit g)
      in
      match outcome with
      | Engine.Synthesized (d, stats) ->
        Format.printf "%-14s %8.3fs  (median %.3fs; %a)@."
          (Printf.sprintf "engine-%s" label)
          wall_s median_s Engine.pp_stats stats;
        add
          ~extra:[ ("decisions", int stats.Engine.decisions) ]
          ~result:
            [
              ("area", num (Design.area d).Design.total);
              ("decisions", int stats.Engine.decisions);
              ("merges", int stats.Engine.merges);
              ("retypes", int stats.Engine.retype_merges);
              ("backtracks", int stats.Engine.backtracks);
              ("design", digest (Format.asprintf "%a" Design.pp d));
            ]
          (Printf.sprintf "scaling-engine-%s" label)
          t
      | Engine.Infeasible { reason } ->
        Format.eprintf "scaling: engine-%s infeasible: %s@." label reason;
        exit 1
  in
  leg ~label:"100" ~max_nodes:100 ~seed:2 ~engine:true;
  leg ~label:"1k" ~max_nodes:1000 ~seed:2 ~engine:true;
  leg ~label:"10k" ~max_nodes:10000 ~seed:2 ~engine:false;
  write_sections "BENCH_scaling.json" (List.rev !records)

(* --- main ---------------------------------------------------------------- *)

let sections =
  [
    ("table1", table1);
    ("figure1", figure1);
    ("figure2", figure2);
    ("ablation-clique", ablation_clique);
    ("ablation-twostep", ablation_twostep);
    ("ablation-policy", ablation_policy);
    ("ablation-battery", ablation_battery);
    ("ablation-fds", ablation_fds);
    ("ablation-shared", ablation_shared);
    ("ablation-rebind", ablation_rebind);
    ("ablation-modulo", ablation_modulo);
    ("sweep", sweep_bench);
    ("preflight", preflight_bench);
    ("serve", serve_bench);
    ("overload", overload_bench);
    ("obs", obs_bench);
    ("scaling", scaling_bench);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | [ _ ] | [] -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Format.eprintf "unknown section %S; available: %s@." name
          (String.concat ", " (List.map fst sections));
        exit 1)
    requested;
  if !grid_records <> [] then
    write_json "BENCH_sweep.json"
      [
        ("recommended_domains", int (Domain.recommended_domain_count ()));
        ("sections", Json.List (List.rev !grid_records));
      ]
