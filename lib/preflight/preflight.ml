module Graph = Pchls_dfg.Graph
module Op = Pchls_dfg.Op
module Library = Pchls_fulib.Library
module Module_spec = Pchls_fulib.Module_spec
module Profile = Pchls_power.Profile
module Cgraph = Pchls_compat.Cgraph
module Exact = Pchls_compat.Exact
module Diag = Pchls_diag.Diag
module Json = Pchls_obs.Json

let eps = Profile.eps

type window = { earliest : int; latest : int }

let pinned w ~min_latency =
  let lo = w.latest and hi = w.earliest + min_latency in
  if lo < hi then Some (lo, hi) else None

type bounds = {
  horizon : int;
  latency_lb : int;
  critical_path : int list;
  windows : (int * window) list;
  demand : float array;
  demand_peak : float;
  demand_peak_cycle : int option;
  energy_lb : float;
  energy_capacity : float;
  fu_area_lb : float;
  fu_area_ub : float;
  fu_area_exact : bool;
}

type certificate =
  | No_admissible_module of {
      kind : Op.kind;
      power_limit : float;
      min_power : float option;
    }
  | Latency_exceeded of { limit : int; lower_bound : int; path : int list }
  | Cycle_overload of {
      cycle : int;
      demand : float;
      limit : float;
      pinned : (int * float) list;
    }
  | Energy_deficit of { energy_lb : float; capacity : float }

type t = {
  graph_name : string;
  time_limit : int;
  power_limit : float;
  bounds : bounds option;
  certificates : certificate list;
}

(* ------------------------------------------------------------------ *)
(* Library pricing under the power constraint.                         *)

let fold_min f = function
  | [] -> None
  | x :: xs ->
    Some (List.fold_left (fun acc y -> min acc (f y)) (f x) xs)

let fold_max f = function
  | [] -> None
  | x :: xs ->
    Some (List.fold_left (fun acc y -> max acc (f y)) (f x) xs)

(* A module drawing more than [P< + eps] in some executing cycle can never
   be placed by any power-feasible schedule, so only [admissible] modules
   take part in any bound. *)
let admissible ~power_limit (m : Module_spec.t) = m.power <= power_limit +. eps

let admissible_candidates ~library ~power_limit k =
  List.filter (admissible ~power_limit) (Library.candidates library k)

(* Per-kind minima over admissible modules: a sound per-op floor on latency,
   per-cycle power, execution energy and host-instance area. *)
type kind_floor = {
  f_lat : int;
  f_pow : float;
  f_energy : float;
  f_area_min : float;
  f_area_max : float;
}

let kind_floor ~library ~power_limit k =
  match admissible_candidates ~library ~power_limit k with
  | [] -> None
  | mods ->
    let get f = Option.get (fold_min f mods) in
    Some
      {
        f_lat = Option.get (fold_min (fun (m : Module_spec.t) -> m.latency) mods);
        f_pow = get (fun m -> m.Module_spec.power);
        f_energy = get Module_spec.energy;
        f_area_min = get (fun m -> m.Module_spec.area);
        f_area_max = Option.get (fold_max (fun (m : Module_spec.t) -> m.area) mods);
      }

(* ------------------------------------------------------------------ *)
(* Windows at minimum admissible latency.                              *)

(* With [lat id] a lower bound on the op's real latency, the window's
   [earliest] under-approximates and [latest] over-approximates any
   feasible start within [horizon] — the windows contain every feasible
   schedule, which is what makes pinned intervals proofs. Both come from
   {!Graph}'s two longest-path passes. *)
let window_of g ~lat ~horizon =
  let from_source = Graph.distances_from_source g ~latency:lat
  and to_sink = Graph.distances_to_sink g ~latency:lat in
  fun id ->
    { earliest = from_source id - lat id; latest = horizon - to_sink id }

(* Walk one latency-critical chain back from the latest-finishing node. *)
let critical_chain g ~lat ~earliest =
  let best =
    List.fold_left
      (fun acc v ->
        let f = earliest v + lat v in
        match acc with
        | Some (_, bf) when bf >= f -> acc
        | _ -> Some (v, f))
      None (Graph.node_ids g)
  in
  match best with
  | None -> []
  | Some (v0, _) ->
    let rec back v acc =
      let e = earliest v in
      if e = 0 then v :: acc
      else
        let p = List.find (fun p -> earliest p + lat p = e) (Graph.preds g v) in
        back p (v :: acc)
    in
    back v0 []

(* ------------------------------------------------------------------ *)
(* FU-area bounds.                                                     *)

let exact_fu_area ~max_vertices ~modules ~kind ~interval ids =
  let ids = Array.of_list ids in
  let n = Array.length ids in
  if n > max_vertices then None
  else begin
    let cost members =
      let kinds =
        List.sort_uniq Op.compare (List.map (fun i -> kind ids.(i)) members)
      in
      List.filter
        (fun m -> List.for_all (Module_spec.implements m) kinds)
        modules
      |> fold_min (fun (m : Module_spec.t) -> m.area)
    in
    let cg = Cgraph.create ~n in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        let overlap =
          match (interval ids.(u), interval ids.(v)) with
          | Some (a, b), Some (c, d) -> a < d && c < b
          | _ -> false
        in
        if (not overlap) && cost [ u; v ] <> None then
          Cgraph.add_edge cg u v 0.
      done
    done;
    Option.map snd (Exact.min_area ~max_vertices ~cost cg)
  end

(* Relaxed lower bound for large graphs: (a) ops pinned to the same cycle
   occupy distinct instances, so each cycle's summed per-op area floor is a
   bound; (b) kinds no admissible module bridges need distinct instances,
   one per connected "shares a module" group, each at least as large as the
   group's costliest per-op floor. *)
let relaxed_area_lb ~library ~power_limit ~horizon g pin floor_of =
  let per_cycle = Array.make (max horizon 1) 0. in
  List.iter
    (fun (n : Graph.node) ->
      match pin n.id with
      | None -> ()
      | Some (lo, hi) ->
        for c = lo to hi - 1 do
          per_cycle.(c) <- per_cycle.(c) +. (floor_of n.kind).f_area_min
        done)
    (Graph.nodes g);
  let lb_cycle = Array.fold_left max 0. per_cycle in
  (* union-find over the six kinds, linked by admissible modules *)
  let all = Array.of_list Op.all in
  let index k =
    let rec go i = if Op.equal all.(i) k then i else go (i + 1) in
    go 0
  in
  let parent = Array.init (Array.length all) (fun i -> i) in
  let rec root i = if parent.(i) = i then i else root parent.(i) in
  let union a b =
    let ra = root a and rb = root b in
    if ra <> rb then parent.(max ra rb) <- min ra rb
  in
  List.iter
    (fun (m : Module_spec.t) ->
      if admissible ~power_limit m then
        match List.map index m.ops with
        | [] -> ()
        | i0 :: rest -> List.iter (union i0) rest)
    (Library.to_list library);
  let group_max = Array.make (Array.length all) 0. in
  List.iter
    (fun (k, _count) ->
      let r = root (index k) in
      group_max.(r) <- max group_max.(r) (floor_of k).f_area_min)
    (Graph.kind_counts g);
  let lb_groups = Array.fold_left ( +. ) 0. group_max in
  max lb_cycle lb_groups

(* ------------------------------------------------------------------ *)
(* Analysis.                                                           *)

let check_limits ~time_limit ~power_limit who =
  if time_limit < 1 then
    invalid_arg (Printf.sprintf "Preflight.%s: time_limit must be >= 1" who);
  if not (power_limit > 0.) then
    invalid_arg (Printf.sprintf "Preflight.%s: power_limit must be positive" who)

let default_exact_max_vertices = 12

let analyze ?(exact_max_vertices = default_exact_max_vertices) ~library
    ~time_limit ?(power_limit = infinity) g =
  check_limits ~time_limit ~power_limit "analyze";
  let kinds = List.sort Op.compare (List.map fst (Graph.kind_counts g)) in
  let floors =
    List.map (fun k -> (k, kind_floor ~library ~power_limit k)) kinds
  in
  let missing = List.filter (fun (_, f) -> f = None) floors in
  if missing <> [] then
    let certificates =
      List.map
        (fun (k, _) ->
          No_admissible_module
            {
              kind = k;
              power_limit;
              min_power =
                fold_min
                  (fun (m : Module_spec.t) -> m.power)
                  (Library.candidates library k);
            })
        missing
    in
    {
      graph_name = Graph.name g;
      time_limit;
      power_limit;
      bounds = None;
      certificates;
    }
  else begin
    let floor_of k = Option.get (List.assoc k floors) in
    let lat id = (floor_of (Graph.kind g id)).f_lat in
    let pow id = (floor_of (Graph.kind g id)).f_pow in
    let cp = Graph.critical_path g ~latency:lat in
    let energy_lb =
      List.fold_left
        (fun acc (n : Graph.node) -> acc +. (floor_of n.kind).f_energy)
        0. (Graph.nodes g)
    in
    let energy_capacity =
      if Float.is_finite power_limit then float_of_int time_limit *. power_limit
      else infinity
    in
    let latency_lb =
      if Float.is_finite power_limit && energy_lb > 0. then
        let q = energy_lb /. (power_limit +. eps) in
        max cp (int_of_float (Float.ceil (q -. 1e-9)))
      else cp
    in
    let horizon = max time_limit cp in
    let window = window_of g ~lat ~horizon in
    let earliest id = (window id).earliest in
    let pin id = pinned (window id) ~min_latency:(lat id) in
    let windows = List.map (fun id -> (id, window id)) (Graph.node_ids g) in
    let demand = Array.make (max horizon 1) 0. in
    List.iter
      (fun id ->
        match pin id with
        | None -> ()
        | Some (lo, hi) ->
          for c = lo to hi - 1 do
            demand.(c) <- demand.(c) +. pow id
          done)
      (Graph.node_ids g);
    let demand_peak = Array.fold_left max 0. demand in
    let demand_peak_cycle =
      if demand_peak <= 0. then None
      else
        let rec first c = if demand.(c) >= demand_peak then c else first (c + 1) in
        Some (first 0)
    in
    let fu_area_ub =
      List.fold_left
        (fun acc (n : Graph.node) -> acc +. (floor_of n.kind).f_area_max)
        0. (Graph.nodes g)
    in
    (* Exact lower bound: two ops are kept compatible unless their pinned
       execution intervals provably overlap, so every real sharing is
       allowed and the optimum can only undercut the real design. *)
    let fu_area_lb, fu_area_exact =
      match
        exact_fu_area ~max_vertices:exact_max_vertices
          ~modules:
            (List.filter (admissible ~power_limit) (Library.to_list library))
          ~kind:(Graph.kind g) ~interval:pin (Graph.node_ids g)
      with
      | Some lb -> (lb, true)
      | None ->
        ( relaxed_area_lb ~library ~power_limit ~horizon g pin floor_of,
          false )
    in
    let certificates = ref [] in
    let push c = certificates := c :: !certificates in
    if Float.is_finite power_limit && energy_lb > energy_capacity +. eps then
      push (Energy_deficit { energy_lb; capacity = energy_capacity });
    (if Float.is_finite power_limit then
       let overloaded = ref None in
       Array.iteri
         (fun c d ->
           if !overloaded = None && d > power_limit +. eps then
             overloaded := Some c)
         demand;
       match !overloaded with
       | None -> ()
       | Some cycle ->
         let cut =
           List.filter_map
             (fun id ->
               match pin id with
               | Some (lo, hi) when lo <= cycle && cycle < hi ->
                 Some (id, pow id)
               | _ -> None)
             (Graph.node_ids g)
         in
         push
           (Cycle_overload
              { cycle; demand = demand.(cycle); limit = power_limit;
                pinned = cut }));
    if cp > time_limit then
      push
        (Latency_exceeded
           {
             limit = time_limit;
             lower_bound = cp;
             path = critical_chain g ~lat ~earliest;
           });
    {
      graph_name = Graph.name g;
      time_limit;
      power_limit;
      bounds =
        Some
          {
            horizon;
            latency_lb;
            critical_path = critical_chain g ~lat ~earliest;
            windows;
            demand;
            demand_peak;
            demand_peak_cycle;
            energy_lb;
            energy_capacity;
            fu_area_lb;
            fu_area_ub;
            fu_area_exact;
          };
      certificates = !certificates;
    }
  end

let infeasible r = r.certificates <> []
let first_certificate r = match r.certificates with [] -> None | c :: _ -> Some c

(* ------------------------------------------------------------------ *)
(* Independent certificate checking.                                   *)

let verify ~library ~time_limit ?(power_limit = infinity) g cert =
  check_limits ~time_limit ~power_limit "verify";
  let ok = Ok () and fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let floor k = kind_floor ~library ~power_limit k in
  let present k = List.exists (fun (k', _) -> Op.equal k k') (Graph.kind_counts g) in
  match cert with
  | No_admissible_module { kind; power_limit = claimed; min_power } ->
    if not (present kind) then
      fail "kind %s does not occur in the graph" (Op.to_string kind)
    else if Float.abs (claimed -. power_limit) > eps
            && not (claimed = power_limit) then
      fail "certificate was issued for P< %g, instance has %g" claimed
        power_limit
    else begin
      let cands = Library.candidates library kind in
      let actual_min = fold_min (fun (m : Module_spec.t) -> m.power) cands in
      match (min_power, actual_min) with
      | None, Some _ -> fail "library does cover kind %s" (Op.to_string kind)
      | _, None -> ok (* uncovered kind: trivially inadmissible *)
      | Some claimed_min, Some actual ->
        if Float.abs (claimed_min -. actual) > eps then
          fail "claimed cheapest power %g, actual %g" claimed_min actual
        else if actual <= power_limit +. eps then
          fail "cheapest candidate (%g) fits under P< %g" actual power_limit
        else ok
    end
  | Latency_exceeded { limit; lower_bound = _; path } ->
    if limit <> time_limit then
      fail "certificate limit %d differs from instance T=%d" limit time_limit
    else if path = [] then fail "empty witness path"
    else if not (List.for_all (Graph.mem g) path) then
      fail "witness path mentions a node not in the graph"
    else begin
      let rec chain = function
        | a :: (b :: _ as rest) ->
          Graph.is_edge g ~src:a ~dst:b && chain rest
        | _ -> true
      in
      if not (chain path) then fail "witness path is not a chain of edges"
      else begin
        (* an op with no admissible module cannot run at all: the chain is
           then unschedulable outright, which also proves the claim *)
        let lats =
          List.map (fun id -> floor (Graph.kind g id)) path
        in
        if List.exists (fun f -> f = None) lats then ok
        else
          let total =
            List.fold_left
              (fun acc f -> acc + (Option.get f).f_lat)
              0 lats
          in
          if total > limit then ok
          else
            fail "witness path needs only %d cycles, within T=%d" total limit
      end
    end
  | Cycle_overload { cycle; demand = _; limit; pinned = cut } ->
    if Float.is_finite power_limit && Float.abs (limit -. power_limit) > eps
    then fail "certificate limit %g differs from instance P< %g" limit
        power_limit
    else if (not (Float.is_finite power_limit)) then
      fail "instance has no power constraint"
    else if cut = [] then fail "empty witness cut"
    else begin
      let ids = List.map fst cut in
      if List.length (List.sort_uniq compare ids) <> List.length ids then
        fail "witness cut repeats an operation"
      else if not (List.for_all (Graph.mem g) ids) then
        fail "witness cut mentions a node not in the graph"
      else begin
        let kinds = List.map fst (Graph.kind_counts g) in
        match List.find_opt (fun k -> floor k = None) kinds with
        | Some k ->
          fail
            "kind %s has no admissible module; windows are undefined (a \
             PRE001 certificate applies instead)"
            (Op.to_string k)
        | None ->
          let floor_of k = Option.get (floor k) in
          let lat id = (floor_of (Graph.kind g id)).f_lat in
          let cp = Graph.critical_path g ~latency:lat in
          let horizon = max time_limit cp in
          let window = window_of g ~lat ~horizon in
          if cycle < 0 || cycle >= horizon then
            fail "cycle %d outside [0, %d)" cycle horizon
          else begin
            let bad =
              List.find_opt
                (fun (id, pw) ->
                  let f = floor_of (Graph.kind g id) and w = window id in
                  pw > f.f_pow +. eps
                  || not (w.latest <= cycle && cycle < w.earliest + f.f_lat))
                cut
            in
            match bad with
            | Some (id, _) ->
              fail
                "op %d is not provably executing at cycle %d (or its \
                 claimed power floor is too high)"
                id cycle
            | None ->
              let total = List.fold_left (fun acc (_, pw) -> acc +. pw) 0. cut in
              if total > limit +. eps then ok
              else
                fail "witness cut draws only %g, within P< %g" total limit
          end
      end
    end
  | Energy_deficit { energy_lb = claimed; capacity = claimed_cap } ->
    if not (Float.is_finite power_limit) then
      fail "instance has no power constraint"
    else begin
      let capacity = float_of_int time_limit *. power_limit in
      if Float.abs (claimed_cap -. capacity) > 1e-6 *. (1. +. Float.abs capacity)
      then fail "claimed capacity %g, instance capacity %g" claimed_cap capacity
      else begin
        let kinds = List.map fst (Graph.kind_counts g) in
        if List.exists (fun k -> floor k = None) kinds then ok
        else begin
          let actual =
            List.fold_left
              (fun acc (n : Graph.node) ->
                acc +. (Option.get (floor n.kind)).f_energy)
              0. (Graph.nodes g)
          in
          if claimed > actual +. eps then
            fail "claimed energy floor %g exceeds recomputed %g" claimed actual
          else if actual > capacity +. eps then ok
          else
            fail "energy floor %g fits the capacity %g" actual capacity
        end
      end
    end

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let certificate_code = function
  | No_admissible_module _ -> "PRE001"
  | Latency_exceeded _ -> "PRE002"
  | Cycle_overload _ -> "PRE003"
  | Energy_deficit _ -> "PRE004"

let string_of_path path = String.concat " > " (List.map string_of_int path)

let certificate_to_string = function
  | No_admissible_module { kind; power_limit; min_power } ->
    let tail =
      match min_power with
      | None -> "the library does not cover it"
      | Some p -> Printf.sprintf "cheapest candidate draws %.2f" p
    in
    Printf.sprintf "kind %s: no admissible module under P< %.2f (%s)"
      (Op.to_string kind) power_limit tail
  | Latency_exceeded { limit; lower_bound; path } ->
    Printf.sprintf "critical path needs >= %d cycles > T=%d (path: %s)"
      lower_bound limit (string_of_path path)
  | Cycle_overload { cycle; demand; limit; pinned } ->
    let cut =
      String.concat ", "
        (List.map (fun (id, pw) -> Printf.sprintf "%d:%.2f" id pw) pinned)
    in
    Printf.sprintf "cycle %d: pinned demand %.2f > P< %.2f (cut: %s)" cycle
      demand limit cut
  | Energy_deficit { energy_lb; capacity } ->
    Printf.sprintf "energy lower bound %.2f > T*P< capacity %.2f" energy_lb
      capacity

let diag_of_certificate c =
  let code = certificate_code c in
  let layer, entity =
    match c with
    | No_admissible_module { kind; _ } ->
      (Diag.Dfg, Diag.Kind (Op.to_string kind))
    | Latency_exceeded _ -> (Diag.Schedule, Diag.Design)
    | Cycle_overload { cycle; _ } -> (Diag.Schedule, Diag.Step cycle)
    | Energy_deficit _ -> (Diag.Schedule, Diag.Design)
  in
  Diag.errorf ~code ~layer ~entity "%s" (certificate_to_string c)

let to_diags r = Diag.sort (List.map diag_of_certificate r.certificates)

let pp_limit p =
  if Float.is_finite p then Printf.sprintf "%.2f" p else "unconstrained"

let summary_diag r =
  match r.bounds with
  | None ->
    Diag.infof ~code:"PRE005" ~layer:Diag.Dfg ~entity:Diag.Design
      "bounds unavailable: some operation kind has no admissible module \
       under P< %s"
      (pp_limit r.power_limit)
  | Some b ->
    Diag.infof ~code:"PRE005" ~layer:Diag.Dfg ~entity:Diag.Design
      "bounds: latency >= %d, demand peak %.2f, energy >= %.2f, fu area in \
       [%.2f, %.2f]%s"
      b.latency_lb b.demand_peak b.energy_lb b.fu_area_lb b.fu_area_ub
      (if b.fu_area_exact then " (exact)" else "")

let render r =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "preflight '%s': T=%d, P< %s" r.graph_name r.time_limit
    (pp_limit r.power_limit);
  (match r.bounds with
  | None -> ()
  | Some b ->
    line "  latency   lb %d (critical path: %s)" b.latency_lb
      (match b.critical_path with [] -> "-" | p -> string_of_path p);
    line "  power     demand peak %.2f%s; energy lb %.2f, capacity %s"
      b.demand_peak
      (match b.demand_peak_cycle with
      | None -> ""
      | Some c -> Printf.sprintf " at cycle %d" c)
      b.energy_lb
      (pp_limit b.energy_capacity);
    line "  fu area   lb %.2f, ub %.2f (%s)" b.fu_area_lb b.fu_area_ub
      (if b.fu_area_exact then "exact" else "relaxed"));
  (match r.certificates with
  | [] -> line "  verdict   cannot prove infeasible"
  | cs ->
    line "  verdict   infeasible (%d certificate%s)" (List.length cs)
      (if List.length cs = 1 then "" else "s");
    List.iter
      (fun c -> line "  %s  %s" (certificate_code c) (certificate_to_string c))
      cs);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)

(* Bounds keep the text report's 6 significant digits: [num] rounds each
   float before it enters the tree. *)
let num f = Json.Number (float_of_string (Printf.sprintf "%.6g" f))
let int n = Json.Number (float_of_int n)
let ints l = Json.List (List.map int l)

let json_certificate c =
  let fields =
    match c with
    | No_admissible_module { kind; power_limit; min_power } ->
      [
        ("kind", Json.String (Op.to_string kind));
        ("power_limit", num power_limit);
        ("min_power", Option.fold ~none:Json.Null ~some:num min_power);
      ]
    | Latency_exceeded { limit; lower_bound; path } ->
      [ ("limit", int limit); ("lower_bound", int lower_bound); ("path", ints path) ]
    | Cycle_overload { cycle; demand; limit; pinned } ->
      [
        ("cycle", int cycle);
        ("demand", num demand);
        ("limit", num limit);
        ( "pinned",
          Json.List
            (List.map
               (fun (id, pw) -> Json.Obj [ ("op", int id); ("power", num pw) ])
               pinned) );
      ]
    | Energy_deficit { energy_lb; capacity } ->
      [ ("energy_lb", num energy_lb); ("capacity", num capacity) ]
  in
  Json.Obj
    ((("code", Json.String (certificate_code c)) :: fields)
    @ [ ("message", Json.String (certificate_to_string c)) ])

let to_json r =
  let bounds =
    match r.bounds with
    | None -> Json.Null
    | Some bo ->
      Json.Obj
        [
          ("horizon", int bo.horizon);
          ("latency_lb", int bo.latency_lb);
          ("critical_path", ints bo.critical_path);
          ("demand_peak", num bo.demand_peak);
          ( "demand_peak_cycle",
            Option.fold ~none:Json.Null ~some:int bo.demand_peak_cycle );
          ("energy_lb", num bo.energy_lb);
          ("energy_capacity", num bo.energy_capacity);
          ("fu_area_lb", num bo.fu_area_lb);
          ("fu_area_ub", num bo.fu_area_ub);
          ("fu_area_exact", Json.Bool bo.fu_area_exact);
          ( "windows",
            Json.List
              (List.map
                 (fun (id, w) ->
                   Json.Obj
                     [
                       ("op", int id);
                       ("earliest", int w.earliest);
                       ("latest", int w.latest);
                     ])
                 bo.windows) );
        ]
  in
  Json.Obj
    [
      ("graph", Json.String r.graph_name);
      ("time_limit", int r.time_limit);
      ("power_limit", num r.power_limit);
      ("infeasible", Json.Bool (infeasible r));
      ("bounds", bounds);
      ("certificates", Json.List (List.map json_certificate r.certificates));
    ]
