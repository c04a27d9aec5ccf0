(* sweep-mixed: cold-cache Explore.sweep ~preflight:true ~jobs:nproc over a
   (T x P<) grid, as `pchls sweep` runs it: the paper graphs plus two
   generated graphs of ~150 and ~250 operations, each at three time limits
   around its critical path, crossed with Figure 2's fourteen power
   budgets. Exercises preflight pruning, the domain pool, cache writes and
   many small-to-mid engine runs.

   The graphs are fixed; the workload seed shuffles the order in which
   they are swept, which changes the process state each sweep starts from
   but not the work. (A seeded wiring of the generated graphs would move
   their critical path, hence the time limits and the engine work, by up
   to 20% between seeds; a seeded grid order moves the pool's tail.) *)

open Common
module Graph = Pchls_dfg.Graph
module Generator = Pchls_dfg.Generator
module Benchmarks = Pchls_dfg.Benchmarks
module Library = Pchls_fulib.Library
module Module_spec = Pchls_fulib.Module_spec
module Explore = Pchls_core.Explore
module Design = Pchls_core.Design
module Profile = Pchls_power.Profile
module Store = Pchls_cache.Store

let powers = [ 2.5; 5.; 7.5; 10.; 12.5; 15.; 20.; 25.; 30.; 40.; 50.; 75.; 100.; 150. ]

let critical_path g =
  Graph.critical_path g ~latency:(fun id ->
      match Library.min_power Verify.library (Graph.kind g id) with
      | Some m -> m.Module_spec.latency
      | None -> invalid_arg "sweep-mixed: library does not cover the graph")

(* Rows at 0.8x, 1.2x and 2x the min-power critical path: the first is
   feasible only with faster modules, the last almost everywhere. *)
let rows g =
  let cp = float_of_int (critical_path g) in
  List.map (fun f -> max 1 (int_of_float (Float.round (f *. cp)))) [ 0.8; 1.2; 2. ]

let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let setup seed () =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let paper =
    List.map
      (fun name -> (name, Option.get (Benchmarks.find name)))
      [ "hal"; "cosine"; "elliptic"; "ar_filter"; "fir16" ]
  in
  let generated name ~layers ~width =
    (name, Generator.layered ~seed:1 ~layers ~width ~io:false ~fill:true ())
  in
  paper @ [ generated "gen150" ~layers:10 ~width:15; generated "gen250" ~layers:13 ~width:19 ]
  |> List.map (fun (name, g) -> (name, g, rows g))
  |> shuffle rng

let grid_size grid =
  List.fold_left (fun n (_, _, ts) -> n + (List.length ts * List.length powers)) 0 grid

(* Checks the points of one graph's sweep. [seen] remembers points already
   verified with the same answer, so repeated passes cost one comparison
   each. *)
let check tally quality seen name g points =
  List.iter
    (fun (pt : Explore.point) ->
      let time_limit = pt.Explore.time_limit and power_limit = pt.Explore.power_limit in
      let key = Printf.sprintf "%s/T=%d/P=%g" name time_limit power_limit in
      attempt tally;
      let answer, verdict =
        match pt.Explore.result with
        | Explore.Feasible { area; peak; design } ->
          let digest = Verify.digest design in
          ( Feasible { area; digest },
            fun () ->
              if
                area <> (Design.area design).Design.total
                || peak <> Profile.peak (Design.profile design)
              then Error "reported area/peak differ from the design"
              else Verify.design ~time_limit ~power_limit design )
        | Explore.Infeasible _ -> (No_design, fun () -> Ok ())
        | Explore.Pruned reason ->
          (No_design, fun () -> Verify.pruned g ~time_limit ~power_limit ~reason)
        | Explore.Failed _ -> (No_design, fun () -> Error "point failed")
      in
      let verdict =
        match Hashtbl.find_opt seen key with
        | Some (a, v) when a = answer -> v
        | Some _ | None ->
          let v = verdict () in
          Hashtbl.replace seen key (answer, v);
          v
      in
      account tally (Result.bind verdict (fun () -> record_answer quality ~key answer)))
    points

(* One cold pass over the whole grid: a fresh cache, one sweep per graph,
   each checked (untimed) before the next starts. Returns the summed sweep
   wall time and the number of pruned points. *)
let pass cfg grid ~check =
  let cache = Store.in_memory () in
  List.fold_left
    (fun (wall, pruned) (name, g, times) ->
      let points, t =
        timed (fun () ->
            Explore.sweep ~preflight:true ~jobs:cfg.jobs ~cache ~library:Verify.library g
              ~times ~powers)
      in
      check name g points;
      let is_pruned (pt : Explore.point) =
        match pt.Explore.result with Explore.Pruned _ -> true | _ -> false
      in
      (wall +. t, pruned + List.length (List.filter is_pruned points)))
    (0., 0) grid

let run cfg =
  let tally = tally () and quality = quality () in
  let grid, setup_s = repeat_median 11 (setup cfg.seed) in
  let points = grid_size grid in
  let seen = Hashtbl.create 512 in
  if not cfg.trace then begin
    let t0 = now_ns () in
    let run_pass () = fst (pass cfg grid ~check:(check tally quality seen)) in
    let first = run_pass () in
    (* The peak of a process that swept the grid once, as `pchls sweep`
       is: every later pass spawns fresh pool domains and leaves the
       resident set a few MB higher, so a whole-run peak would grow with
       the number of passes that fit. *)
    let rss = peak_rss_mb None in
    let rec loop walls =
      if seconds_since t0 >= cfg.seconds then walls else loop (run_pass () :: walls)
    in
    let walls = loop [ first ] in
    ( tally,
      quality,
      [
        ("setup_s", setup_s);
        ("ops_per_s", float_of_int (points * List.length walls) /. sum walls);
        ("latency_p50_ms", 1e3 *. median walls);
        ("area_sum", area_sum quality);
        ("feasible_count", float_of_int (feasible_count quality));
        ("peak_rss_mb", rss);
      ] )
  end
  else begin
    (* A traced pass re-verifies every point, so the post-synthesis
       layers show in its split. *)
    let pruned, split =
      Layers.alternate ~seconds:cfg.seconds ~jobs:cfg.jobs (fun ~traced ->
          let seen = if traced then Hashtbl.create 512 else seen in
          let wall, pruned = pass cfg grid ~check:(check tally quality seen) in
          (pruned, wall))
    in
    (tally, quality, Layers.metrics { split with Layers.grid_points = points; pruned })
  end
