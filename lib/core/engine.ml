module Graph = Pchls_dfg.Graph
module Op = Pchls_dfg.Op
module Library = Pchls_fulib.Library
module Module_spec = Pchls_fulib.Module_spec
module Schedule = Pchls_sched.Schedule
module Pasap = Pchls_sched.Pasap
module Palap = Pchls_sched.Palap
module Profile = Pchls_power.Profile
module Trace = Pchls_obs.Trace
module Metrics = Pchls_obs.Metrics
module Budget = Pchls_resil.Budget

let src = Logs.Src.create "pchls.engine" ~doc:"synthesis engine decisions"

module Log = (val Logs.src_log src : Logs.LOG)

let m_runs = Metrics.counter "engine.runs"
let m_iterations = Metrics.counter "engine.iterations"
let m_gain_evaluated = Metrics.counter "clique.gain_evaluated"
let m_backtracks = Metrics.counter "engine.backtracks"
let m_merges = Metrics.counter "engine.merges"
let m_retypes = Metrics.counter "engine.retype_merges"
let m_fresh = Metrics.counter "engine.new_instances"
let m_upgrades = Metrics.counter "engine.default_upgrades"
let m_infeasible = Metrics.counter "engine.infeasible"
let m_forced = Metrics.counter "engine.forced_commits"
let m_partials = Metrics.counter "engine.deadline_partials"

type policy = Min_power | Min_area | Min_latency

type completion =
  | Complete
  | Deadline_exceeded of { reason : Budget.reason; forced : int }

type stats = {
  decisions : int;
  merges : int;
  retype_merges : int;
  new_instances : int;
  backtracks : int;
  default_upgrades : int;
  completion : completion;
}

type outcome = Synthesized of Design.t * stats | Infeasible of { reason : string }

let policy_to_string = function
  | Min_power -> "min-power"
  | Min_area -> "min-area"
  | Min_latency -> "min-latency"

let reason_token = function
  | Budget.Wall_clock -> "wall-clock"
  | Budget.Iterations -> "iterations"
  | Budget.Cancelled -> "cancelled"

let pp_stats ppf s =
  Format.fprintf ppf
    "decisions=%d merges=%d retypes=%d new=%d backtracks=%d upgrades=%d"
    s.decisions s.merges s.retype_merges s.new_instances s.backtracks
    s.default_upgrades;
  (* Only partial results grow the line, so complete runs render exactly as
     they always did (golden outputs depend on it). *)
  match s.completion with
  | Complete -> ()
  | Deadline_exceeded { reason; forced } ->
    Format.fprintf ppf " partial=%s forced=%d" (reason_token reason) forced

type inst_state = {
  inst_id : int;
  mutable spec : Module_spec.t;
  mutable placed : (int * int) list; (* (op, start), unsorted *)
}

type decision =
  | Merge of { op : int; inst : inst_state; start : int; retype : Module_spec.t option }
  | Fresh of { op : int; spec : Module_spec.t; start : int }

(* Mutable synthesis state threaded through one [run]. *)
type state = {
  budget : Budget.t option;
  g : Graph.t;
  lib : Library.t;
  time_limit : int;
  power_limit : float;
  cost_model : Cost_model.t;
  default_spec : (int, Module_spec.t) Hashtbl.t; (* per unassigned op *)
  assigned : (int, inst_state * int) Hashtbl.t; (* op -> instance, start *)
  mutable instances : inst_state list; (* newest first *)
  mutable next_inst : int;
  caps : (string, int) Hashtbl.t; (* per-module instance caps *)
  mutable time_locked : bool;
  locked_times : (int, int) Hashtbl.t; (* valid once time_locked *)
  assigned_profile : Profile.t; (* power of committed ops only *)
  mutable n_merges : int;
  mutable n_retypes : int;
  mutable n_fresh : int;
  mutable n_backtracks : int;
  mutable n_upgrades : int;
}

let spec_info (m : Module_spec.t) =
  { Schedule.latency = m.latency; power = m.power }

let info st op =
  match Hashtbl.find_opt st.assigned op with
  | Some (inst, _) -> spec_info inst.spec
  | None -> spec_info (Hashtbl.find st.default_spec op)

let unassigned st =
  List.filter (fun op -> not (Hashtbl.mem st.assigned op)) (Graph.node_ids st.g)

let locked_list st =
  let committed =
    Hashtbl.fold (fun op (_, t) acc -> (op, t) :: acc) st.assigned []
  in
  if st.time_locked then
    Hashtbl.fold
      (fun op t acc ->
        if Hashtbl.mem st.assigned op then acc else (op, t) :: acc)
      st.locked_times committed
  else committed

(* Wall-clock / cancellation interrupts only: the iteration cap is checked
   at engine-iteration boundaries, not inside schedulers or default
   selection, so a [max_iters] budget still lets each iteration finish. *)
let interrupted st =
  match st.budget with None -> None | Some b -> Budget.interrupted b

let cancelled st () = interrupted st <> None

let run_pasap st =
  Pasap.run st.g ~info:(info st) ~horizon:st.time_limit
    ~power_limit:st.power_limit ~locked:(locked_list st)
    ~cancelled:(cancelled st) ()

let run_palap st =
  Palap.run st.g ~info:(info st) ~horizon:st.time_limit
    ~power_limit:st.power_limit ~locked:(locked_list st)
    ~cancelled:(cancelled st) ()

(* --- initial default-module selection ------------------------------- *)

let ancestors g op =
  let seen = Hashtbl.create 16 in
  let rec visit acc op =
    List.fold_left
      (fun acc p ->
        if Hashtbl.mem seen p then acc
        else begin
          Hashtbl.replace seen p ();
          visit (p :: acc) p
        end)
      acc (Graph.preds g op)
  in
  visit [] op

(* If the default-policy schedule misses the time constraint, promote the
   blocking operation (or one of its ancestors) to the fastest module whose
   power still fits under the limit. *)
let deadline_before_feasible r =
  Printf.sprintf
    "deadline exceeded before a feasible design was found (%s)"
    (Budget.reason_to_string r)

let rec settle_defaults st attempts =
  match run_pasap st with
  | Pasap.Feasible s -> Ok s
  | Pasap.Infeasible _ when interrupted st <> None ->
    (* The scheduler was cancelled mid-run: there is no valid schedule yet,
       so there is nothing to wind down to. *)
    Error
      (deadline_before_feasible
         (Option.get (interrupted st)))
  | Pasap.Infeasible { node; reason } ->
    if attempts <= 0 then
      Error
        (Printf.sprintf "default module selection cannot meet constraints: %s"
           reason)
    else
      let upgradable op =
        let current = Hashtbl.find st.default_spec op in
        let faster =
          List.filter
            (fun (m : Module_spec.t) ->
              m.latency < current.Module_spec.latency
              && m.power <= st.power_limit +. Profile.eps)
            (Library.candidates st.lib (Graph.kind st.g op))
        in
        match
          List.sort
            (fun (a : Module_spec.t) (b : Module_spec.t) ->
              Int.compare a.latency b.latency)
            faster
        with
        | m :: _ -> Some m
        | [] -> None
      in
      let rec first_upgrade = function
        | [] -> None
        | op :: rest -> (
          match upgradable op with
          | Some m -> Some (op, m)
          | None -> first_upgrade rest)
      in
      (match first_upgrade (node :: ancestors st.g node) with
      | Some (op, m) ->
        Hashtbl.replace st.default_spec op m;
        st.n_upgrades <- st.n_upgrades + 1;
        Metrics.incr m_upgrades;
        settle_defaults st (attempts - 1)
      | None ->
        Error
          (Printf.sprintf
             "infeasible: node %d (%s) cannot be scheduled (%s) and no faster \
              module fits the power limit"
             node (Graph.node_name st.g node) reason))

(* --- candidate generation ------------------------------------------- *)

let spec_count st name =
  List.length
    (List.filter (fun i -> i.spec.Module_spec.name = name) st.instances)

(* Can another instance of module [name] exist? Used for fresh instances and
   for retypes (which net one more instance of the target type). *)
let under_cap st name =
  match Hashtbl.find_opt st.caps name with
  | None -> true
  | Some cap -> spec_count st name < cap

let arity st op = List.length (Graph.preds st.g op)

let mux_penalty st op =
  st.cost_model.Cost_model.mux_input_area *. float_of_int (arity st op)

(* Earliest precedence-feasible start of [op], with predecessor latencies
   optionally overridden for a retype trial on instance [trial]. *)
let earliest_start st pasap ?trial op =
  let latency p =
    match trial with
    | Some (inst, (m : Module_spec.t))
      when List.exists (fun (q, _) -> q = p) inst.placed ->
      m.latency
    | Some _ | None -> (info st p).Schedule.latency
  in
  List.fold_left
    (fun acc p -> max acc (Schedule.start pasap p + latency p))
    0 (Graph.preds st.g op)

(* Latest cycle by which [op] must have finished so that every successor can
   still start at its palap time. *)
let deadline st palap op =
  List.fold_left
    (fun acc s -> min acc (Schedule.start palap s))
    st.time_limit (Graph.succs st.g op)

(* Busy-interval check: can [op] run on [inst] (under latency [d]) starting
   at some cycle in [lo, hi]? Returns the earliest such start. *)
let earliest_slot inst ~d ~lo ~hi =
  let busy = List.sort (fun (_, a) (_, b) -> Int.compare a b) inst.placed in
  let rec scan t =
    if t > hi then None
    else
      let clash =
        List.find_opt (fun (_, tb) -> t < tb + d && tb < t + d) busy
      in
      match clash with
      | None -> Some t
      | Some (_, tb) -> scan (tb + d)
  in
  scan lo

(* The latest such start instead. *)
let latest_slot inst ~d ~lo ~hi =
  let rec scan t =
    if t < lo then None
    else
      let clash =
        List.find_opt (fun (_, tb) -> t < tb + d && tb < t + d) inst.placed
      in
      match clash with
      | None -> Some t
      | Some (_, tb) -> scan (tb - d)
  in
  scan hi

(* Committing an operation pins a start time, which caps the windows of its
   still-unassigned neighbours. An operation whose predecessors are still
   free but whose successors are all placed (or are primary outputs, which
   are placed late anyway) should therefore sit as LATE as possible;
   the default is as early as possible. This mirrors the palap placement of
   sinks in [fresh_candidate]. *)
let prefer_late st op =
  (match Graph.succs st.g op with
  | [] -> true
  | succs ->
    List.for_all
      (fun s ->
        Hashtbl.mem st.assigned s
        || (match Graph.kind st.g s with
           | Op.Output -> true
           | Op.Add | Op.Sub | Op.Mult | Op.Comp | Op.Input -> false))
      succs)
  && List.exists (fun p -> not (Hashtbl.mem st.assigned p)) (Graph.preds st.g op)

(* Power pre-check against the committed operations only. For a retype the
   instance's existing operations change power and latency, so rebuild its
   contribution on a scratch copy. *)
let power_precheck st inst retype ~start ~d ~power =
  match retype with
  | None ->
    Profile.fits st.assigned_profile ~start ~latency:d ~power
      ~limit:st.power_limit
  | Some (m : Module_spec.t) ->
    let scratch = Profile.copy st.assigned_profile in
    let old = inst.spec in
    List.iter
      (fun (_, t) ->
        Profile.remove scratch ~start:t ~latency:old.Module_spec.latency
          ~power:old.Module_spec.power)
      inst.placed;
    let ok = ref true in
    List.iter
      (fun (_, t) ->
        if t + m.latency > st.time_limit then ok := false
        else if
          Profile.fits scratch ~start:t ~latency:m.latency ~power:m.power
            ~limit:st.power_limit
        then Profile.add scratch ~start:t ~latency:m.latency ~power:m.power
        else ok := false)
      inst.placed;
    !ok
    && Profile.fits scratch ~start ~latency:d ~power ~limit:st.power_limit

(* The cheapest library module implementing every kind in [kinds], other
   than [current]; [None] when none exists or none fits the power limit. *)
let retype_spec st current kinds =
  let implements_all (m : Module_spec.t) =
    List.for_all (Module_spec.implements m) kinds
  in
  let candidates =
    List.filter
      (fun (m : Module_spec.t) ->
        implements_all m
        && (not (Module_spec.equal m current))
        && m.power <= st.power_limit +. Profile.eps)
      (Library.to_list st.lib)
  in
  match
    List.sort
      (fun (a : Module_spec.t) (b : Module_spec.t) -> Float.compare a.area b.area)
      candidates
  with
  | m :: _ -> Some m
  | [] -> None

(* All timing constraints of a retype: every already-placed op keeps its
   start but runs [m.latency] cycles, so intervals must stay disjoint and
   each must still meet its successors' deadlines. *)
let retype_timing_ok st palap inst (m : Module_spec.t) =
  let d = m.latency in
  let sorted = List.sort (fun (_, a) (_, b) -> Int.compare a b) inst.placed in
  let rec disjoint = function
    | (_, t1) :: ((_, t2) :: _ as rest) -> t1 + d <= t2 && disjoint rest
    | [ _ ] | [] -> true
  in
  disjoint sorted
  && List.for_all (fun (op, t) -> t + d <= deadline st palap op) sorted

let gain_of st = function
  | Fresh { op; _ } ->
    -.(Hashtbl.find st.default_spec op).Module_spec.area
  | Merge { op; inst; retype; _ } ->
    let saved = (Hashtbl.find st.default_spec op).Module_spec.area in
    let upgrade_cost =
      match retype with
      | Some (m : Module_spec.t) -> m.area -. inst.spec.Module_spec.area
      | None -> 0.
    in
    saved -. upgrade_cost -. mux_penalty st op

(* Best merge of [op] onto one specific [inst], or [None]. Split out from
   the all-instances enumeration so the candidate store can evaluate a
   single (operation, instance) entry on demand. *)
let merge_candidate st pasap palap op inst =
  let kind = Graph.kind st.g op in
  let locked_at = Hashtbl.find_opt st.locked_times op in
  let same_spec_ok = Module_spec.implements inst.spec kind in
  let consider (m : Module_spec.t) retype =
    let d = m.Module_spec.latency in
    let lo = earliest_start st pasap ?trial:(Option.map (fun r -> (inst, r)) retype) op in
    let hi = deadline st palap op - d in
    let lo, hi =
      match (st.time_locked, locked_at) with
      | true, Some t -> (max lo t, min hi t)
      | true, None | false, _ -> (lo, hi)
    in
    if st.time_locked && not (Module_spec.equal m (Hashtbl.find st.default_spec op))
    then None (* locked mode must not change the power profile shape *)
    else
      let placements =
        if (not st.time_locked) && prefer_late st op then
          [ latest_slot inst ~d ~lo ~hi; earliest_slot inst ~d ~lo ~hi ]
        else [ earliest_slot inst ~d ~lo ~hi ]
      in
      List.find_map
        (fun slot ->
          match slot with
          | None -> None
          | Some start ->
            if
              power_precheck st inst retype ~start ~d
                ~power:m.Module_spec.power
            then Some (Merge { op; inst; start; retype })
            else None)
        placements
  in
  if same_spec_ok then consider inst.spec None
  else if st.time_locked then None
  else
    let kinds =
      kind
      :: List.map (fun (q, _) -> Graph.kind st.g q) inst.placed
      |> List.sort_uniq Op.compare
    in
    match retype_spec st inst.spec kinds with
    | Some m
      when retype_timing_ok st palap inst m
           && under_cap st m.Module_spec.name ->
      consider m (Some m)
    | Some _ | None -> None

let merge_candidates st pasap palap op =
  List.filter_map (merge_candidate st pasap palap op) (List.rev st.instances)

(* A fresh instance usually starts its operation at the pasap time (as early
   as possible). When [prefer_late] holds (sinks, and operations whose only
   unplaced neighbours are predecessors) it takes the palap time instead:
   committing such an operation early would needlessly pin the makespan and
   erase the predecessors' slack, killing future sharing. In locked mode the
   pasap time *is* the locked time and must be kept. *)
let fresh_candidate st pasap palap op =
  let default = Hashtbl.find st.default_spec op in
  let spec =
    if under_cap st default.Module_spec.name then Some default
    else if st.time_locked then None
      (* a different module would change the locked power profile *)
    else
      (* The default module type is capped out: fall back to the cheapest
         other candidate still under its cap and power limit. Its latency
         may differ from the default used by pasap; the post-commit
         revalidation guards the schedule. *)
      Library.candidates st.lib (Graph.kind st.g op)
      |> List.filter (fun (m : Module_spec.t) ->
             under_cap st m.Module_spec.name
             && m.power <= st.power_limit +. Profile.eps)
      |> List.sort (fun (a : Module_spec.t) (b : Module_spec.t) ->
             Float.compare a.area b.area)
      |> function
      | m :: _ -> Some m
      | [] -> None
  in
  match spec with
  | None -> None
  | Some spec ->
    let late = Schedule.start palap op in
    let start =
      if
        (not st.time_locked)
        && prefer_late st op
        && Profile.fits st.assigned_profile ~start:late
             ~latency:spec.Module_spec.latency ~power:spec.Module_spec.power
             ~limit:st.power_limit
      then late
      else Schedule.start pasap op
    in
    Some (Fresh { op; spec; start })

let slack pasap palap op = Schedule.start palap op - Schedule.start pasap op

(* Equal-gain ties resolve in dataflow order (earlier pasap start first):
   committing a consumer before its producer would cap the producer's
   deadline and destroy sharing opportunities. *)
let decision_order st pasap palap a b =
  let ga = gain_of st a and gb = gain_of st b in
  if not (Float.equal ga gb) then Float.compare gb ga
  else
    let op_of = function Merge { op; _ } | Fresh { op; _ } -> op in
    let ta = Schedule.start pasap (op_of a)
    and tb = Schedule.start pasap (op_of b) in
    if ta <> tb then Int.compare ta tb
    else
    let sa = slack pasap palap (op_of a) and sb = slack pasap palap (op_of b) in
    if sa <> sb then Int.compare sa sb
    else if op_of a <> op_of b then Int.compare (op_of a) (op_of b)
    else
      let rank = function
        | Merge { retype = None; _ } -> 0
        | Merge { retype = Some _; _ } -> 1
        | Fresh _ -> 2
      in
      let ra = rank a and rb = rank b in
      if ra <> rb then Int.compare ra rb
      else
        let inst_rank = function
          | Merge { inst; _ } -> inst.inst_id
          | Fresh _ -> max_int
        in
        Int.compare (inst_rank a) (inst_rank b)

(* Reference enumeration: every candidate of every unassigned operation,
   fully sorted. This is the pre-store selection rule; the store below must
   agree with its head on every iteration, and [self_check] asserts that it
   does. Only used for that oracle (and by equivalence tests) — the hot
   path is [select_decision]. *)
let candidates st pasap palap =
  let cands =
    List.concat_map
      (fun op ->
        let merges = merge_candidates st pasap palap op in
        match fresh_candidate st pasap palap op with
        | Some fresh -> fresh :: merges
        | None -> merges)
      (unassigned st)
  in
  List.sort (decision_order st pasap palap) cands

(* --- persistent candidate store --------------------------------------

   One entry per (operation, placement target), kept across iterations in
   buckets keyed by the decision's gain — the primary sort key of
   [decision_order]. Selection scans gain levels downward and, within the
   first level holding a feasible decision, breaks ties with the full
   [decision_order]; since every candidate of a strictly higher gain was
   found infeasible, this reproduces exactly the head of the old full
   re-sort without enumerating the other levels.

   Gains are cached, not recomputed wholesale: a Fresh entry's gain
   (-default area) and a same-module merge's gain (saved area - mux
   penalty) never change after default selection settles, and a
   retype-merge's gain only moves when the instance's module or kind set
   changes. Kind sets only grow and only push the cheapest covering module
   upward, so a stale cached gain can only be too HIGH — the scan detects
   that (recomputed gain <> bucket key) and sinks the entry to its true
   level, preserving the downward-scan invariant. The one event that can
   RAISE a gain — a committed retype changing [inst.spec] — triggers an
   eager regrade of that instance's entries instead. Entries whose
   operation has been assigned are dropped lazily when a scan meets them;
   this is safe because trial commits are always reverted before the next
   scan runs.

   An entry whose retype target disappears (no library module covers the
   grown kind set) is parked on its instance and revisited only if a
   retype changes that instance's module — the only event that can bring
   a target back. *)

module Gain_map = Map.Make (Float)

type ctarget = T_fresh | T_inst of inst_state
type centry = { c_op : int; c_target : ctarget }

type store = {
  mutable levels : centry list ref Gain_map.t;
  parked : (int, centry list ref) Hashtbl.t; (* inst_id -> dead retypes *)
}

(* Current gain of an entry, mirroring [gain_of] on the decision the entry
   would produce; [None] when no retype target exists (park it). *)
let entry_gain st e =
  let default op = (Hashtbl.find st.default_spec op : Module_spec.t) in
  match e.c_target with
  | T_fresh -> Some (-.(default e.c_op).Module_spec.area)
  | T_inst inst ->
    let kind = Graph.kind st.g e.c_op in
    let saved = (default e.c_op).Module_spec.area in
    if Module_spec.implements inst.spec kind then
      Some (saved -. mux_penalty st e.c_op)
    else (
      let kinds =
        kind :: List.map (fun (q, _) -> Graph.kind st.g q) inst.placed
        |> List.sort_uniq Op.compare
      in
      match retype_spec st inst.spec kinds with
      | Some (m : Module_spec.t) ->
        let upgrade_cost = m.area -. inst.spec.Module_spec.area in
        Some (saved -. upgrade_cost -. mux_penalty st e.c_op)
      | None -> None)

let store_insert sto gain e =
  match Gain_map.find_opt gain sto.levels with
  | Some b -> b := e :: !b
  | None -> sto.levels <- Gain_map.add gain (ref [ e ]) sto.levels

let store_park sto inst e =
  let b =
    match Hashtbl.find_opt sto.parked inst.inst_id with
    | Some b -> b
    | None ->
      let b = ref [] in
      Hashtbl.replace sto.parked inst.inst_id b;
      b
  in
  b := e :: !b

let store_add st sto e =
  match entry_gain st e with
  | Some g -> store_insert sto g e
  | None -> (
    match e.c_target with
    | T_inst inst -> store_park sto inst e
    | T_fresh -> assert false (* fresh gains always exist *))

let store_init st =
  let sto = { levels = Gain_map.empty; parked = Hashtbl.create 16 } in
  List.iter
    (fun op ->
      store_add st sto { c_op = op; c_target = T_fresh };
      List.iter
        (fun inst -> store_add st sto { c_op = op; c_target = T_inst inst })
        st.instances)
    (unassigned st);
  sto

(* A committed retype can raise the gains of other entries on the same
   instance (the upgrade cost shrinks), which would break the
   stale-gains-only-sink invariant — so pull every entry of that instance
   out of the buckets (and its parked list) and re-add them at their
   recomputed gains. Retypes are rare, so the full-store sweep is cheap
   amortised. *)
let store_regrade_inst st sto inst =
  let mine = ref [] in
  sto.levels <-
    Gain_map.filter_map
      (fun _ b ->
        let keep, pulled =
          List.partition
            (fun e ->
              match e.c_target with
              | T_inst i -> not (i == inst)
              | T_fresh -> true)
            !b
        in
        mine := pulled @ !mine;
        if keep = [] then None
        else begin
          b := keep;
          Some b
        end)
      sto.levels;
  (match Hashtbl.find_opt sto.parked inst.inst_id with
  | Some b ->
    mine := !b @ !mine;
    Hashtbl.remove sto.parked inst.inst_id
  | None -> ());
  List.iter
    (fun e -> if not (Hashtbl.mem st.assigned e.c_op) then store_add st sto e)
    !mine

(* Store maintenance after a VALIDATED commit (never after a trial that
   may be reverted — reverted commits must leave the store untouched). *)
let store_note_commit st sto decision =
  match decision with
  | Fresh _ -> (
    (* The commit just pushed the new instance onto the head. *)
    match st.instances with
    | inst :: _ ->
      List.iter
        (fun op -> store_add st sto { c_op = op; c_target = T_inst inst })
        (unassigned st)
    | [] -> assert false)
  | Merge { inst; retype = Some _; _ } -> store_regrade_inst st sto inst
  | Merge { retype = None; _ } -> ()

(* Head of the old full re-sort, computed by descending the gain levels.
   Within a level every entry is revalidated (dead entries dropped, sunken
   gains moved) and evaluated against the current schedules; the first
   level with feasible decisions yields the winner under the full
   [decision_order]. Feasibility is re-established every call — only the
   gain keys persist between iterations. *)
let select_decision st sto pasap palap =
  let rec go bound =
    match Gain_map.find_last_opt (fun k -> k < bound) sto.levels with
    | None -> None
    | Some (gain, bucket) ->
      let feasible = ref [] in
      let keep = ref [] in
      List.iter
        (fun e ->
          if Hashtbl.mem st.assigned e.c_op then () (* lazily dropped *)
          else
            match entry_gain st e with
            | None -> (
              match e.c_target with
              | T_inst inst -> store_park sto inst e
              | T_fresh -> assert false)
            | Some g when not (Float.equal g gain) ->
              store_insert sto g e (* sank; rescanned at its new level *)
            | Some _ -> (
              keep := e :: !keep;
              let d =
                match e.c_target with
                | T_fresh -> fresh_candidate st pasap palap e.c_op
                | T_inst inst -> merge_candidate st pasap palap e.c_op inst
              in
              match d with
              | Some d -> feasible := d :: !feasible
              | None -> ()))
        !bucket;
      (match !keep with
      | [] -> sto.levels <- Gain_map.remove gain sto.levels
      | kept -> bucket := List.rev kept);
      Metrics.incr ~by:(List.length !feasible) m_gain_evaluated;
      (match !feasible with
      | [] -> go gain
      | fs -> Some (List.hd (List.sort (decision_order st pasap palap) fs)))
  in
  go infinity

(* Structural agreement between the store's pick and the reference
   enumeration's head, for the [self_check] oracle. Instances compare by
   identity — the store and the enumeration share the same records. *)
let same_decision a b =
  match (a, b) with
  | ( Merge { op = oa; inst = ia; start = sa; retype = ra },
      Merge { op = ob; inst = ib; start = sb; retype = rb } ) ->
    oa = ob && ia == ib && sa = sb
    && (match (ra, rb) with
       | None, None -> true
       | Some x, Some y -> Module_spec.equal x y
       | None, Some _ | Some _, None -> false)
  | ( Fresh { op = oa; spec = ma; start = sa },
      Fresh { op = ob; spec = mb; start = sb } ) ->
    oa = ob && Module_spec.equal ma mb && sa = sb
  | Merge _, Fresh _ | Fresh _, Merge _ -> false

(* --- commit / undo --------------------------------------------------- *)

type undo = { revert : unit -> unit }

let commit st decision =
  match decision with
  | Fresh { op; spec; start } ->
    let inst = { inst_id = st.next_inst; spec; placed = [ (op, start) ] } in
    st.next_inst <- st.next_inst + 1;
    st.instances <- inst :: st.instances;
    Hashtbl.replace st.assigned op (inst, start);
    Profile.add st.assigned_profile ~start ~latency:spec.Module_spec.latency
      ~power:spec.Module_spec.power;
    {
      revert =
        (fun () ->
          Profile.remove st.assigned_profile ~start
            ~latency:spec.Module_spec.latency ~power:spec.Module_spec.power;
          Hashtbl.remove st.assigned op;
          st.instances <- List.filter (fun i -> i != inst) st.instances;
          st.next_inst <- st.next_inst - 1);
    }
  | Merge { op; inst; start; retype } ->
    let old_spec = inst.spec in
    (match retype with
    | Some m ->
      (* Re-account the existing operations under the new module. *)
      List.iter
        (fun (_, t) ->
          Profile.remove st.assigned_profile ~start:t
            ~latency:old_spec.Module_spec.latency
            ~power:old_spec.Module_spec.power)
        inst.placed;
      inst.spec <- m;
      List.iter
        (fun (_, t) ->
          Profile.add st.assigned_profile ~start:t ~latency:m.Module_spec.latency
            ~power:m.Module_spec.power)
        inst.placed
    | None -> ());
    inst.placed <- (op, start) :: inst.placed;
    Hashtbl.replace st.assigned op (inst, start);
    Profile.add st.assigned_profile ~start
      ~latency:inst.spec.Module_spec.latency ~power:inst.spec.Module_spec.power;
    {
      revert =
        (fun () ->
          Profile.remove st.assigned_profile ~start
            ~latency:inst.spec.Module_spec.latency
            ~power:inst.spec.Module_spec.power;
          inst.placed <- List.filter (fun (q, _) -> q <> op) inst.placed;
          Hashtbl.remove st.assigned op;
          match retype with
          | Some m ->
            List.iter
              (fun (_, t) ->
                Profile.remove st.assigned_profile ~start:t
                  ~latency:m.Module_spec.latency ~power:m.Module_spec.power)
              inst.placed;
            inst.spec <- old_spec;
            List.iter
              (fun (_, t) ->
                Profile.add st.assigned_profile ~start:t
                  ~latency:old_spec.Module_spec.latency
                  ~power:old_spec.Module_spec.power)
              inst.placed
          | None -> ());
    }

let note_commit st decision =
  (match decision with
  | Fresh _ ->
    st.n_fresh <- st.n_fresh + 1;
    Metrics.incr m_fresh
  | Merge { retype = None; _ } ->
    st.n_merges <- st.n_merges + 1;
    Metrics.incr m_merges
  | Merge { retype = Some _; _ } ->
    st.n_retypes <- st.n_retypes + 1;
    Metrics.incr m_retypes);
  if Trace.observed () then
    Trace.instant ~cat:"engine"
      ~args:
        [
          ( "decision",
            match decision with
            | Merge { retype = None; _ } -> "merge"
            | Merge { retype = Some _; _ } -> "retype-merge"
            | Fresh _ -> "fresh" );
          ( "op",
            string_of_int
              (match decision with Merge { op; _ } | Fresh { op; _ } -> op) );
          ("gain", Printf.sprintf "%.1f" (gain_of st decision));
        ]
      "engine.commit"

(* --- main loop -------------------------------------------------------- *)

let lock_unassigned st valid_pasap =
  st.time_locked <- true;
  Hashtbl.reset st.locked_times;
  List.iter
    (fun op -> Hashtbl.replace st.locked_times op (Schedule.start valid_pasap op))
    (unassigned st)

(* Self-check: after a backtrack-and-lock event the engine trusts
   [valid_pasap] as-is for every remaining decision, so a silently invalid
   schedule here would corrupt everything downstream. Re-lint it. *)
let self_check_lock st s =
  match
    Schedule.validate st.g s ~info:(info st) ~time_limit:st.time_limit
      ~power_limit:st.power_limit ()
  with
  | Ok () -> Ok ()
  | Error ds ->
    Error
      (Printf.sprintf
         "self-check: schedule locked after backtrack fails lint: %s"
         (String.concat "; "
            (List.map Pchls_diag.Diag.to_string
               (List.filteri (fun i _ -> i < 3) ds))))

let run ?(cost_model = Cost_model.default) ?(policy = Min_power)
    ?(max_instances = []) ?(seed_instances = []) ?(self_check = false)
    ?deadline ~library ~time_limit
    ?(power_limit = infinity) g =
  if time_limit < 1 then invalid_arg "Engine.run: time_limit < 1";
  if power_limit <= 0. then invalid_arg "Engine.run: power_limit <= 0";
  List.iter
    (fun (name, cap) ->
      if cap < 0 then
        invalid_arg (Printf.sprintf "Engine.run: negative cap for %s" name);
      if Library.find library name = None then
        invalid_arg
          (Printf.sprintf "Engine.run: cap names unknown module %s" name))
    max_instances;
  (match Library.covers library g with
  | Ok () -> ()
  | Error kinds ->
    invalid_arg
      (Printf.sprintf "Engine.run: library covers no module for: %s"
         (String.concat ", " (List.map Op.to_string kinds))));
  (* Fault injection: dropping the limit here poisons every downstream
     consumer consistently — schedulers, gain tests and final assembly
     validation all agree the budget is unbounded, so the bug is invisible
     to self-checks and only a differential oracle catches it. *)
  let power_limit =
    if Pchls_resil.Fault.fires ~key:0 "engine.power-check" then infinity
    else power_limit
  in
  Metrics.incr m_runs;
  (* The whole search is delimited so an escaping exception hits the
     flight-recorder crash hook before the caller unwinds further — the
     ring then holds the engine's last moments. *)
  let synthesize () =
    Trace.span ~cat:"engine" ~args:[ ("graph", Graph.name g) ] "engine.run"
    @@ fun () ->
  let select =
    match policy with
    | Min_power -> Library.min_power
    | Min_area -> Library.min_area
    | Min_latency -> Library.min_latency
  in
  let default_spec = Hashtbl.create 64 in
  List.iter
    (fun op ->
      match select library (Graph.kind g op) with
      | Some m -> Hashtbl.replace default_spec op m
      | None -> assert false (* covered above *))
    (Graph.node_ids g);
  let seeds =
    List.mapi
      (fun i spec -> { inst_id = i; spec; placed = [] })
      seed_instances
  in
  let st =
    {
      budget = deadline;
      g;
      lib = library;
      time_limit;
      power_limit;
      cost_model;
      default_spec;
      assigned = Hashtbl.create 64;
      instances = List.rev seeds;
      next_inst = List.length seeds;
      caps =
        (let h = Hashtbl.create 8 in
         List.iter (fun (name, cap) -> Hashtbl.replace h name cap) max_instances;
         h);
      time_locked = false;
      locked_times = Hashtbl.create 64;
      assigned_profile = Profile.create ~horizon:time_limit;
      n_merges = 0;
      n_retypes = 0;
      n_fresh = 0;
      n_backtracks = 0;
      n_upgrades = 0;
    }
  in
  match settle_defaults st (Graph.node_count g + 5) with
  | Error reason ->
    Metrics.incr m_infeasible;
    Infeasible { reason }
  | Ok first_pasap ->
    (* One clique-partition iteration: evaluate every candidate gain, commit
       the best, re-schedule, and fall back to backtrack-and-lock when the
       commit kills feasibility. Pulled out of [iterate] so each iteration
       is its own trace span without nesting the whole tail under it. *)
    let sto = store_init st in
    (* Store pick, optionally cross-checked against the reference
       enumeration: any divergence is a selection bug, reported rather
       than silently synthesized through. *)
    let pick pasap palap =
      let picked = select_decision st sto pasap palap in
      if not self_check then Ok picked
      else
        let reference =
          match candidates st pasap palap with [] -> None | c :: _ -> Some c
        in
        match (picked, reference) with
        | None, None -> Ok picked
        | Some a, Some b when same_decision a b -> Ok picked
        | Some _, Some _ | Some _, None | None, Some _ ->
          Error
            "self-check: candidate store selection diverges from the full \
             enumeration"
    in
    let step valid_pasap =
      let palap =
        match run_palap st with
        | Pasap.Feasible s -> s
        | Pasap.Infeasible _ -> valid_pasap (* degenerate windows *)
      in
      match pick valid_pasap palap with
      | Error e -> `Error e
      | Ok None ->
        let op =
          match unassigned st with op :: _ -> op | [] -> -1
        in
        `Error
          (Printf.sprintf
             "no feasible decision for operation %d (%s): instance caps \
              leave it no module to run on"
             op
             (Graph.node_name st.g op))
      | Ok (Some best) -> (
        Log.debug (fun m ->
            m "commit %s (gain %.1f)"
              (match best with
              | Merge { op; inst; start; retype } ->
                Printf.sprintf "merge op %d -> inst %d @%d%s" op inst.inst_id
                  start
                  (match retype with
                  | Some r -> " retype " ^ r.Module_spec.name
                  | None -> "")
              | Fresh { op; spec; start } ->
                Printf.sprintf "fresh op %d : %s @%d" op
                  spec.Module_spec.name start)
              (gain_of st best));
        let undo = commit st best in
        match run_pasap st with
        | Pasap.Feasible next_pasap ->
          note_commit st best;
          store_note_commit st sto best;
          `Continue next_pasap
        | Pasap.Infeasible _ when interrupted st <> None ->
          (* The re-schedule was cancelled by the deadline, not genuinely
             infeasible: undo the trial commit (it was never validated) and
             let [iterate] wind down from the last valid schedule. *)
          undo.revert ();
          `Deadline (Option.get (interrupted st))
        | Pasap.Infeasible { node; reason } ->
          Log.debug (fun m -> m "backtrack: node %d, %s" node reason);
          undo.revert ();
          st.n_backtracks <- st.n_backtracks + 1;
          Metrics.incr m_backtracks;
          if Trace.observed () then
            Trace.instant ~cat:"engine"
              ~args:[ ("node", string_of_int node); ("reason", reason) ]
              "engine.backtrack";
          lock_unassigned st valid_pasap;
          (match
             if self_check then self_check_lock st valid_pasap else Ok ()
           with
          | Error e -> `Error e
          | Ok () -> (
            (* In locked mode decisions keep the valid pasap's times and
               module choices, so the schedule stays feasible as-is. *)
            match pick valid_pasap valid_pasap with
            | Error e -> `Error e
            | Ok (Some locked_best) ->
              let _ = commit st locked_best in
              note_commit st locked_best;
              store_note_commit st sto locked_best;
              `Continue valid_pasap
            | Ok None ->
              `Error
                "no feasible decision after locking: instance caps leave \
                 some operation no module to run on")))
    in
    (* Anytime wind-down: commit every remaining operation as a fresh
       instance of its default module at its start time in the last valid
       pasap schedule. That schedule already places the unassigned
       operations with exactly these specs, so precedence and the power
       limit hold by construction — only sharing quality is lost (and
       [max_instances] caps may be exceeded by the forced fresh
       allocations, which partial results document rather than fail on). *)
    let force_complete valid_pasap reason =
      let remaining = unassigned st in
      List.iter
        (fun op ->
          let spec = Hashtbl.find st.default_spec op in
          let start = Schedule.start valid_pasap op in
          ignore (commit st (Fresh { op; spec; start })))
        remaining;
      let forced = List.length remaining in
      Metrics.incr ~by:forced m_forced;
      Metrics.incr m_partials;
      Log.info (fun m ->
          m "deadline (%s): forced %d remaining operation(s) to fresh \
             instances"
            (Budget.reason_to_string reason)
            forced);
      Deadline_exceeded { reason; forced }
    in
    let rec iterate valid_pasap =
      if unassigned st = [] then Ok Complete
      else
        match Option.bind st.budget Budget.check with
        | Some reason -> Ok (force_complete valid_pasap reason)
        | None -> begin
          Option.iter Budget.tick st.budget;
          Metrics.incr m_iterations;
          match
            Trace.span ~cat:"engine" "engine.iterate" (fun () ->
                step valid_pasap)
          with
          | `Continue next_pasap -> iterate next_pasap
          | `Deadline reason -> Ok (force_complete valid_pasap reason)
          | `Error reason -> Error reason
        end
    in
    (match iterate first_pasap with
    | Error reason ->
      Metrics.incr m_infeasible;
      Infeasible { reason }
    | Ok completion -> (
      let instances =
        List.rev st.instances
        |> List.filter (fun i -> i.placed <> [])
        |> List.map (fun i ->
               ( i.spec,
                 List.sort (fun (_, a) (_, b) -> Int.compare a b) i.placed ))
      in
      match
        Design.assemble ~cost_model ~graph:g ~time_limit ~power_limit
          ~instances
      with
      | Ok design ->
        Synthesized
          ( design,
            {
              decisions = st.n_merges + st.n_retypes + st.n_fresh;
              merges = st.n_merges;
              retype_merges = st.n_retypes;
              new_instances = st.n_fresh;
              backtracks = st.n_backtracks;
              default_upgrades = st.n_upgrades;
              completion;
            } )
      | Error reason ->
        Metrics.incr m_infeasible;
        Infeasible { reason = "final design validation failed: " ^ reason }))
  in
  (try synthesize ()
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Pchls_obs.Flight.note_crash ~origin:"engine.run" e;
     Printexc.raise_with_backtrace e bt)
