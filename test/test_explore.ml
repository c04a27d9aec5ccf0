module Explore = Pchls_core.Explore
module Design = Pchls_core.Design
module Library = Pchls_fulib.Library
module Store = Pchls_cache.Store
module B = Pchls_dfg.Benchmarks

let hal_points () =
  Explore.sweep ~library:Library.default B.hal ~times:[ 10; 17 ]
    ~powers:[ 5.; 20.; 100. ]

let test_sweep_grid_shape () =
  let points = hal_points () in
  Alcotest.(check int) "2 x 3 grid" 6 (List.length points);
  (* row-major: first three points share T=10 *)
  (match points with
  | a :: b :: c :: d :: _ ->
    Alcotest.(check int) "row order" 10 a.Explore.time_limit;
    Alcotest.(check int) "row order" 10 b.Explore.time_limit;
    Alcotest.(check int) "row order" 10 c.Explore.time_limit;
    Alcotest.(check int) "next row" 17 d.Explore.time_limit
  | _ -> Alcotest.fail "missing points")

let test_sweep_outcomes () =
  let points = hal_points () in
  let result t p =
    (List.find
       (fun q -> q.Explore.time_limit = t && q.Explore.power_limit = p)
       points)
      .Explore.result
  in
  (match result 10 5. with
  | Explore.Infeasible _ | Explore.Pruned _ -> ()
  | Explore.Feasible _ -> Alcotest.fail "hal T=10 P=5 should be infeasible"
  | Explore.Failed r -> Alcotest.fail r);
  match result 17 100. with
  | Explore.Feasible { area; peak; design } ->
    Alcotest.(check bool) "area positive" true (area > 0.);
    Alcotest.(check bool) "peak positive" true (peak > 0.);
    Alcotest.(check bool) "design matches" true
      (Float.equal (Design.area design).Design.total area)
  | Explore.Infeasible r | Explore.Pruned r | Explore.Failed r ->
    Alcotest.fail r

(* [~fp] means what it means in [solve]: the sweep stores every grid point
   under the given fingerprint instead of deriving one, and its answers
   stay the same. *)
let test_sweep_given_fingerprint () =
  let times = [ 10; 17 ] and powers = [ 5.; 20.; 100. ] in
  let cache = Store.in_memory () in
  let given =
    Explore.sweep ~library:Library.default ~cache ~fp:"given" B.hal ~times
      ~powers
  in
  List.iter
    (fun time_limit ->
      List.iter
        (fun power_limit ->
          Alcotest.(check bool)
            (Printf.sprintf "T=%d P<=%g stored under the given fingerprint"
               time_limit power_limit)
            true
            (Option.is_some
               (Store.find cache
                  { Store.fingerprint = "given"; time_limit; power_limit })))
        powers)
    times;
  let summary (pt : Explore.point) =
    Printf.sprintf "T=%d P<=%g %s" pt.Explore.time_limit pt.Explore.power_limit
      (match pt.Explore.result with
      | Explore.Feasible { area; peak; _ } ->
        Printf.sprintf "feasible area=%g peak=%g" area peak
      | Explore.Infeasible r -> "infeasible " ^ r
      | Explore.Pruned r -> "pruned " ^ r
      | Explore.Failed r -> "failed " ^ r)
  in
  Alcotest.(check (list string))
    "same points as the sweep without ~fp"
    (List.map summary (hal_points ()))
    (List.map summary given)

let test_min_feasible_power () =
  let points = hal_points () in
  Alcotest.(check (option (float 0.))) "T=10 edge" (Some 20.)
    (Explore.min_feasible_power points ~time_limit:10);
  (* hal T=17 is infeasible at P=5 (edge is ~7.5), so 20 is the smallest
     feasible grid point at both time limits. *)
  Alcotest.(check (option (float 0.))) "T=17 edge" (Some 20.)
    (Explore.min_feasible_power points ~time_limit:17);
  Alcotest.(check (option (float 0.))) "unknown T" None
    (Explore.min_feasible_power points ~time_limit:99)

let test_pareto_drops_dominated () =
  let points = hal_points () in
  let front = Explore.pareto points in
  Alcotest.(check bool) "front non-empty" true (front <> []);
  (* No point in the front dominates another front point. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a != b then
            match (a.Explore.result, b.Explore.result) with
            | ( Explore.Feasible { area = area_a; _ },
                Explore.Feasible { area = area_b; _ } ) ->
              let dominated =
                a.Explore.time_limit <= b.Explore.time_limit
                && a.Explore.power_limit <= b.Explore.power_limit
                && area_a <= area_b
                && (a.Explore.time_limit < b.Explore.time_limit
                   || a.Explore.power_limit < b.Explore.power_limit
                   || area_a < area_b)
              in
              Alcotest.(check bool) "no domination inside front" false dominated
            | ( ( Explore.Feasible _ | Explore.Infeasible _ | Explore.Pruned _
                | Explore.Failed _ ),
                _ ) ->
              Alcotest.fail "front contains infeasible point")
        front)
    front;
  (* Every feasible point is dominated-or-in-front. *)
  List.iter
    (fun p ->
      match p.Explore.result with
      | Explore.Infeasible _ | Explore.Pruned _ | Explore.Failed _ -> ()
      | Explore.Feasible _ ->
        Alcotest.(check bool) "covered" true
          (List.exists
             (fun q ->
               q == p
               || (match (q.Explore.result, p.Explore.result) with
                  | ( Explore.Feasible { area = area_q; _ },
                      Explore.Feasible { area = area_p; _ } ) ->
                    q.Explore.time_limit <= p.Explore.time_limit
                    && q.Explore.power_limit <= p.Explore.power_limit
                    && area_q <= area_p
                  | ( ( Explore.Feasible _ | Explore.Infeasible _
                      | Explore.Pruned _ | Explore.Failed _ ),
                      _ ) ->
                    false))
             front))
    points

let test_tighten_improves_or_keeps () =
  (* cosine T=19 is the documented case where tightening helps. *)
  let baseline t p g =
    match
      Pchls_core.Engine.run ~library:Library.default ~time_limit:t
        ~power_limit:p g
    with
    | Pchls_core.Engine.Synthesized (d, _) -> (Design.area d).Design.total
    | Pchls_core.Engine.Infeasible { reason } -> Alcotest.fail reason
  in
  List.iter
    (fun (g, t, p) ->
      match
        Explore.tighten ~library:Library.default g ~time_limit:t ~power_limit:p
      with
      | Ok d ->
        let a = (Design.area d).Design.total in
        Alcotest.(check bool) "no worse than direct synthesis" true
          (a <= baseline t p g +. 1e-9);
        Alcotest.(check bool) "still meets the original budget" true
          (Pchls_power.Profile.peak (Design.profile d) <= p +. 1e-9);
        Alcotest.(check bool) "still meets the deadline" true
          (Design.makespan d <= t)
      | Error e -> Alcotest.fail e)
    [ (B.cosine, 19, 150.); (B.hal, 17, 50.); (B.elliptic, 22, 40.) ]

let test_tighten_strictly_improves_cosine () =
  let direct =
    match
      Pchls_core.Engine.run ~library:Library.default ~time_limit:19
        ~power_limit:150. B.cosine
    with
    | Pchls_core.Engine.Synthesized (d, _) -> (Design.area d).Design.total
    | Pchls_core.Engine.Infeasible { reason } -> Alcotest.fail reason
  in
  match
    Explore.tighten ~library:Library.default B.cosine ~time_limit:19
      ~power_limit:150.
  with
  | Ok d ->
    Alcotest.(check bool)
      (Printf.sprintf "tightened %.0f < direct %.0f"
         (Design.area d).Design.total direct)
      true
      ((Design.area d).Design.total < direct)
  | Error e -> Alcotest.fail e

let test_tighten_infeasible_budget () =
  match
    Explore.tighten ~library:Library.default B.hal ~time_limit:3
      ~power_limit:10.
  with
  | Ok _ -> Alcotest.fail "T=3 cannot be feasible"
  | Error _ -> ()

let test_tighten_infinite_budget () =
  match
    Explore.tighten ~library:Library.default B.hal ~time_limit:17
      ~power_limit:infinity
  with
  | Ok d ->
    Alcotest.(check bool) "produces a design" true
      ((Design.area d).Design.total > 0.)
  | Error e -> Alcotest.fail e

let test_render_table () =
  let s = Explore.render_table (hal_points ()) in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + 2 rows + legend" 4 (List.length lines);
  Alcotest.(check bool) "contains dash for infeasible" true
    (String.contains s '-');
  match List.rev lines with
  | legend :: _ ->
    Alcotest.(check bool) "legend last" true
      (String.length legend >= 7 && String.sub legend 0 7 = "legend:")
  | [] -> assert false

let test_render_table_pruned_cell () =
  (* a statically-pruned point renders as U+2205, distinct from '-'/'!' *)
  let points =
    Explore.sweep ~preflight:true ~library:Library.default B.hal
      ~times:[ 10 ] ~powers:[ 2.0; 100. ]
  in
  (match (List.nth points 0).Explore.result with
  | Explore.Pruned reason ->
    Alcotest.(check bool) "carries a PRE code" true
      (String.length reason >= 3 && String.sub reason 0 3 = "PRE")
  | _ -> Alcotest.fail "P<=2 should be statically pruned");
  let s = Explore.render_table points in
  Alcotest.(check bool) "empty-set glyph present" true
    (let glyph = "\xe2\x88\x85" in
     let n = String.length s in
     let rec go i =
       i + 3 <= n && (String.sub s i 3 = glyph || go (i + 1))
     in
     go 0)

let () =
  Alcotest.run "explore"
    [
      ( "explore",
        [
          Alcotest.test_case "sweep grid shape" `Quick test_sweep_grid_shape;
          Alcotest.test_case "sweep outcomes" `Quick test_sweep_outcomes;
          Alcotest.test_case "sweep under a given fingerprint" `Quick
            test_sweep_given_fingerprint;
          Alcotest.test_case "min feasible power" `Quick test_min_feasible_power;
          Alcotest.test_case "pareto front" `Quick test_pareto_drops_dominated;
          Alcotest.test_case "render table" `Quick test_render_table;
          Alcotest.test_case "render table pruned cell" `Quick
            test_render_table_pruned_cell;
          Alcotest.test_case "tighten never worse" `Quick
            test_tighten_improves_or_keeps;
          Alcotest.test_case "tighten strictly improves cosine" `Quick
            test_tighten_strictly_improves_cosine;
          Alcotest.test_case "tighten on infeasible budget" `Quick
            test_tighten_infeasible_budget;
          Alcotest.test_case "tighten with infinite budget" `Quick
            test_tighten_infinite_budget;
        ] );
    ]
