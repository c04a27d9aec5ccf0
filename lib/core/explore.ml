module Profile = Pchls_power.Profile
module Fingerprint = Pchls_cache.Fingerprint
module Store = Pchls_cache.Store
module Pool = Pchls_par.Pool
module Trace = Pchls_obs.Trace
module Metrics = Pchls_obs.Metrics
module Budget = Pchls_resil.Budget
module Fault = Pchls_resil.Fault

let m_points = Metrics.counter "explore.points"
let m_failed_points = Metrics.counter "explore.failed_points"

let h_point_ns =
  Metrics.histogram ~buckets:Metrics.ns_buckets "explore.point_ns"

module Preflight = Pchls_preflight.Preflight

type point = { time_limit : int; power_limit : float; result : result }

and result =
  | Feasible of { area : float; peak : float; design : Design.t }
  | Infeasible of string
  | Pruned of string
  | Failed of string

(* Bump whenever an engine change makes previously cached results wrong:
   every key embeds the salt, so old on-disk entries silently go stale. *)
let cache_salt = "pchls-engine-v1"

(* Pruned points are cached as ordinary [Store.Infeasible] entries under
   this reason prefix, so the store format is unchanged and non-preflight
   consumers still read them as (sound) infeasibility. *)
let pruned_prefix = "preflight: "

let prune_reason_of_cached reason =
  let n = String.length pruned_prefix in
  if
    String.length reason >= n
    && String.equal (String.sub reason 0 n) pruned_prefix
  then Some (String.sub reason n (String.length reason - n))
  else None

(* The cheap certificate-only configuration: no exact area search. A
   malformed grid point (T < 1, P <= 0) falls through to the engine, which
   reports it per-point. *)
let certificate ~library g ~time_limit ~power_limit =
  match
    Preflight.analyze ~exact_max_vertices:0 ~library ~time_limit ~power_limit
      g
  with
  | r ->
    Option.map
      (fun c ->
        Printf.sprintf "%s: %s"
          (Preflight.certificate_code c)
          (Preflight.certificate_to_string c))
      (Preflight.first_certificate r)
  | exception _ -> None

let fingerprint ?(cost_model = Cost_model.default) ?(policy = Engine.Min_power)
    ~library g =
  Fingerprint.combine
    [
      Fingerprint.of_string cache_salt;
      Fingerprint.graph g;
      Fingerprint.library library;
      Fingerprint.of_string
        (Printf.sprintf "cost:%s:%s"
           (Fingerprint.float_repr cost_model.Cost_model.register_area)
           (Fingerprint.float_repr cost_model.Cost_model.mux_input_area));
      Fingerprint.of_string ("policy:" ^ Engine.policy_to_string policy);
    ]

let feasible design =
  Feasible
    {
      area = (Design.area design).Design.total;
      peak = Profile.peak (Design.profile design);
      design;
    }

let result_of_outcome = function
  | Engine.Synthesized (design, _) -> feasible design
  | Engine.Infeasible { reason } -> Infeasible reason

let summary_of_result = function
  | Feasible { area; peak; design } ->
    Store.Feasible
      {
        area;
        peak;
        instances =
          List.map
            (fun (i : Design.instance) -> (i.Design.spec, i.Design.ops))
            (Design.instances design);
      }
  | Infeasible reason -> Store.Infeasible reason
  | Pruned reason -> Store.Infeasible (pruned_prefix ^ reason)
  | Failed _ -> assert false (* evaluation failures are never cached *)

(* Solve one grid point, consulting the cache when given. A cached feasible
   entry is rebuilt into a full design via [Design.assemble]; should that
   ever fail (a semantically stale entry), the engine runs and the entry is
   overwritten. *)
let solve ?cost_model ?policy ?deadline ?(preflight = false) ~library ?cache
    ?fp g ~time_limit ~power_limit =
  Metrics.incr m_points;
  Trace.span ~cat:"explore"
    ~args:
      (if Trace.observed () then
         [
           ("T", string_of_int time_limit);
           ("P<", Printf.sprintf "%g" power_limit);
         ]
       else [])
    "explore.point"
  @@ fun () ->
  Metrics.time h_point_ns @@ fun () ->
  let engine () =
    match
      if preflight then
        certificate ~library g ~time_limit ~power_limit
      else None
    with
    | Some reason -> Pruned reason
    | None ->
      result_of_outcome
        (Engine.run ?cost_model ?policy ?deadline ~library ~time_limit
           ~power_limit g)
  in
  (* A result produced under an exhausted budget describes the deadline,
     not the problem: a forced partial design (or an
     infeasible-before-found) cached here would poison every later
     unbudgeted run with the same key. *)
  let cacheable () =
    match deadline with Some b -> not (Budget.exhausted b) | None -> true
  in
  match cache with
  | None -> engine ()
  | Some store -> (
    let fp =
      match fp with
      | Some fp -> fp
      | None -> fingerprint ?cost_model ?policy ~library g
    in
    let key = { Store.fingerprint = fp; time_limit; power_limit } in
    let miss () =
      let r = engine () in
      if cacheable () then Store.add store key (summary_of_result r);
      r
    in
    match Store.find store key with
    | None -> miss ()
    | Some (Store.Infeasible reason) -> (
      match prune_reason_of_cached reason with
      | Some r -> Pruned r
      | None -> Infeasible reason)
    | Some (Store.Feasible { instances; _ }) -> (
      let cost_model =
        match cost_model with Some c -> c | None -> Cost_model.default
      in
      match
        Design.assemble ~cost_model ~graph:g ~time_limit ~power_limit
          ~instances
      with
      | Ok design -> feasible design
      | Error _ -> miss ()))

let sweep ?cost_model ?policy ?(jobs = 1) ?cache ?fp ?deadline
    ?(preflight = false) ~library g ~times ~powers =
  let fp =
    Option.map
      (fun _ ->
        match fp with
        | Some fp -> fp
        | None -> fingerprint ?cost_model ?policy ~library g)
      cache
  in
  let grid =
    Array.of_list
      (List.concat_map (fun t -> List.map (fun p -> (t, p)) powers) times)
  in
  (* Static pruning runs in the calling domain, before any pool dispatch: a
     certificate costs microseconds, so a provably-doomed point never
     occupies a worker. Pruned points are cached like engine results. *)
  let static_prune (time_limit, power_limit) =
    match deadline with
    | Some b when Budget.exhausted b -> None
    | Some _ | None -> (
      match certificate ~library g ~time_limit ~power_limit with
      | None -> None
      | Some reason ->
        (match (cache, fp) with
        | Some store, Some fp ->
          Store.add store
            { Store.fingerprint = fp; time_limit; power_limit }
            (Store.Infeasible (pruned_prefix ^ reason))
        | _ -> ());
        Some { time_limit; power_limit; result = Pruned reason })
  in
  (* Each point is evaluated in isolation: a crash (or an armed
     "explore.point" fault, keyed by grid index so seeded campaigns kill a
     deterministic subset) becomes a per-point [Failed] result while every
     other point still runs. Points reached after the deadline are not
     evaluated at all. *)
  let failed_point (time_limit, power_limit) msg =
    Metrics.incr m_failed_points;
    { time_limit; power_limit; result = Failed msg }
  in
  let eval i =
    let time_limit, power_limit = grid.(i) in
    match deadline with
    | Some b when Budget.exhausted b ->
      failed_point (time_limit, power_limit)
        "deadline exceeded before evaluation"
    | Some _ | None ->
      Fault.inject ~key:i "explore.point";
      {
        time_limit;
        power_limit;
        result =
          solve ?cost_model ?policy ?deadline ~library ?cache ?fp g
            ~time_limit ~power_limit;
      }
  in
  Trace.span ~cat:"explore"
    ~args:
      (if Trace.observed () then
         [
           ("grid", string_of_int (Array.length grid));
           ("jobs", string_of_int jobs);
         ]
       else [])
    "explore.sweep"
  @@ fun () ->
  (* One slot per grid position: pruned points are filled in here, live
     ones from the pool's results. *)
  let points =
    Array.map (fun tp -> if preflight then static_prune tp else None) grid
  in
  let live =
    List.filter
      (fun i -> Option.is_none points.(i))
      (List.init (Array.length grid) Fun.id)
  in
  (* One path at every [jobs]: a one-job pool runs inline, and every point
     gets the same retry and [pool.worker] fault seam. *)
  Pool.with_pool ~jobs:(max 1 jobs) (fun pool ->
      List.iter2
        (fun i outcome ->
          points.(i) <-
            Some
              (match outcome with
              | Ok p -> p
              | Error (f : Pool.failure) ->
                failed_point grid.(i) (Printexc.to_string f.exn)))
        live
        (Pool.try_map ~retries:1 pool eval live));
  Array.to_list (Array.map Option.get points)

let min_feasible_power points ~time_limit =
  List.fold_left
    (fun acc p ->
      match (p.result, acc) with
      | Feasible _, None when p.time_limit = time_limit -> Some p.power_limit
      | Feasible _, Some best
        when p.time_limit = time_limit && p.power_limit < best ->
        Some p.power_limit
      | (Feasible _ | Infeasible _ | Pruned _ | Failed _), _ -> acc)
    None points

let dominates a b =
  match (a.result, b.result) with
  | Feasible fa, Feasible fb ->
    a.time_limit <= b.time_limit
    && a.power_limit <= b.power_limit
    && fa.area <= fb.area
    && (a.time_limit < b.time_limit
       || a.power_limit < b.power_limit
       || fa.area < fb.area)
  | (Feasible _ | Infeasible _ | Pruned _ | Failed _), _ -> false

let pareto points =
  let feasible =
    List.filter
      (fun p ->
        match p.result with
        | Feasible _ -> true
        | Infeasible _ | Pruned _ | Failed _ -> false)
      points
  in
  List.filter
    (fun p -> not (List.exists (fun q -> dominates q p) feasible))
    feasible
  |> List.sort (fun a b ->
         if a.time_limit <> b.time_limit then
           Int.compare a.time_limit b.time_limit
         else Float.compare a.power_limit b.power_limit)

(* How many tightened budgets [tighten] tries after the first design. *)
let tighten_steps = 6

let tighten ?cost_model ?policy ?cache ?deadline ~library g ~time_limit
    ~power_limit =
  Trace.span ~cat:"explore" "explore.tighten" @@ fun () ->
  let fp =
    Option.map (fun _ -> fingerprint ?cost_model ?policy ~library g) cache
  in
  let attempt budget =
    match
      solve ?cost_model ?policy ?deadline ~library ?cache ?fp g ~time_limit
        ~power_limit:budget
    with
    | Feasible { design; _ } -> Ok design
    | Infeasible reason | Pruned reason | Failed reason -> Error reason
  in
  match attempt power_limit with
  | Error _ as e -> e
  | Ok first ->
    let area d = (Design.area d).Design.total in
    let next_budget budget d =
      let peak = Profile.peak (Design.profile d) in
      let shrunk =
        if Float.is_finite budget then Float.min (budget *. 0.75) (peak *. 0.99)
        else peak *. 0.99
      in
      if shrunk > 0. then Some shrunk else None
    in
    let rec refine best budget d remaining =
      if remaining = 0 then best
      else
        match next_budget budget d with
        | None -> best
        | Some budget -> (
          match attempt budget with
          | Error _ -> best
          | Ok d' ->
            let best = if area d' < area best then d' else best in
            refine best budget d' (remaining - 1))
    in
    Ok (refine first power_limit first tighten_steps)

(* Sorted ascending and deduplicated, so tables render identically whatever
   order (or multiplicity) the sweep's times/powers were given in. *)
let uniques compare key points =
  List.map key points |> List.sort_uniq compare

let render_table points =
  let buf = Buffer.create 512 in
  let times = uniques Int.compare (fun p -> p.time_limit) points in
  let powers = uniques Float.compare (fun p -> p.power_limit) points in
  Buffer.add_string buf (Printf.sprintf "%-8s" "T \\ P<");
  List.iter (fun p -> Buffer.add_string buf (Printf.sprintf "%8.1f" p)) powers;
  Buffer.add_char buf '\n';
  List.iter
    (fun t ->
      Buffer.add_string buf (Printf.sprintf "%-8d" t);
      List.iter
        (fun pw ->
          let cell =
            match
              List.find_opt
                (fun p -> p.time_limit = t && p.power_limit = pw)
                points
            with
            | Some { result = Feasible { area; _ }; _ } ->
              Printf.sprintf "%8.0f" area
            | Some { result = Infeasible _; _ } -> Printf.sprintf "%8s" "-"
            (* U+2205 is three bytes, so %8s would misalign: pad by hand to
               eight visual columns *)
            | Some { result = Pruned _; _ } -> "       \xe2\x88\x85"
            | Some { result = Failed _; _ } -> Printf.sprintf "%8s" "!"
            | None -> Printf.sprintf "%8s" "?"
          in
          Buffer.add_string buf cell)
        powers;
      Buffer.add_char buf '\n')
    times;
  Buffer.add_string buf
    "legend: area = feasible, - = infeasible, \xe2\x88\x85 = pruned \
     (preflight), ! = failed, ? = missing\n";
  Buffer.contents buf
