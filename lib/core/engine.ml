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
  mutable placed : (int * int) list; (* (op, start), newest first *)
  starts : Slots.t; (* the starts of [placed], sorted *)
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
  (* What the schedulers read, per index of [g], kept current by every
     commit, revert, retype and default upgrade: the module each op runs
     on ([info]) and its locked start, -1 while it is free (committed ops,
     and once [time_locked] every op). *)
  latency : int array;
  power : float array;
  locked : int array;
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

let index st op = Graph.index st.g op
let id_at st i = (Graph.node_at st.g i).Graph.id

let set_spec st i (m : Module_spec.t) =
  st.latency.(i) <- m.latency;
  st.power.(i) <- m.power

(* [None] when the kept arrays agree with [info], [assigned] and
   [locked_times]; else the first index where they do not, rebuilt from
   scratch. [self_check] runs it every iteration. *)
let state_drift st =
  let lock op =
    match Hashtbl.find_opt st.assigned op with
    | Some (_, t) -> t
    | None when st.time_locked ->
      Option.value ~default:(-1) (Hashtbl.find_opt st.locked_times op)
    | None -> -1
  in
  let rec go i =
    if i = Graph.node_count st.g then None
    else
      let op = id_at st i in
      let { Schedule.latency; power } = info st op in
      if
        latency <> st.latency.(i)
        || (not (Float.equal power st.power.(i)))
        || lock op <> st.locked.(i)
      then
        Some
          (Printf.sprintf
             "self-check: scheduler input of operation %d is latency %d, \
              power %g, lock %d, but %d, %g, %d from scratch"
             op st.latency.(i) st.power.(i) st.locked.(i) latency power
             (lock op))
      else go (i + 1)
  in
  go 0

(* [s], an array of starts by index, as a schedule. *)
let schedule_of st s =
  let sched = ref Schedule.empty in
  Array.iteri (fun i t -> sched := Schedule.set !sched (id_at st i) t) s;
  !sched

(* Wall-clock interrupts only: the iteration cap is checked at
   engine-iteration boundaries, not inside schedulers or default selection,
   so a [max_iters] budget still lets each iteration finish. *)
let interrupted st =
  match st.budget with None -> None | Some b -> Budget.interrupted b

let cancelled st () = interrupted st <> None

let run_pasap st =
  Pasap.starts st.g ~latency:st.latency ~power:st.power ~locked:st.locked
    ~horizon:st.time_limit ~power_limit:st.power_limit
    ~cancelled:(cancelled st) ()

let run_palap st =
  Palap.starts st.g ~latency:st.latency ~power:st.power ~locked:st.locked
    ~horizon:st.time_limit ~power_limit:st.power_limit
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

(* The first of [mods] by [by] among those that satisfy [keep] and fit the
   power limit; ties keep [mods]' order, since [List.sort] is stable. *)
let best st ~by keep mods =
  match
    List.filter
      (fun (m : Module_spec.t) -> keep m && m.power <= st.power_limit +. Profile.eps)
      mods
    |> List.sort by
  with
  | m :: _ -> Some m
  | [] -> None

let by_area (a : Module_spec.t) (b : Module_spec.t) = Float.compare a.area b.area

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
        best st
          ~by:(fun (a : Module_spec.t) b -> Int.compare a.latency b.latency)
          (fun m -> m.latency < current.Module_spec.latency)
          (Library.candidates st.lib (Graph.kind st.g op))
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
        set_spec st (index st op) m;
        st.n_upgrades <- st.n_upgrades + 1;
        Metrics.incr m_upgrades;
        settle_defaults st (attempts - 1)
      | None ->
        Error
          (Printf.sprintf
             "node %d (%s) cannot be scheduled (%s) and no faster module \
              fits the power limit"
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

let arity st op = Array.length (Graph.pred_indices st.g (index st op))

let mux_penalty st op =
  st.cost_model.Cost_model.mux_input_area *. float_of_int (arity st op)

(* Earliest precedence-feasible start of [op], with predecessor latencies
   optionally overridden for a retype trial on instance [trial]. *)
let earliest_start st pasap ?trial op =
  let latency p =
    match trial with
    | Some (inst, (m : Module_spec.t))
      when List.exists (fun (q, _) -> q = id_at st p) inst.placed ->
      m.latency
    | Some _ | None -> st.latency.(p)
  in
  Array.fold_left
    (fun acc p -> max acc (pasap.(p) + latency p))
    0
    (Graph.pred_indices st.g (index st op))

(* Latest cycle by which [op] must have finished so that every successor can
   still start at its palap time. *)
let deadline st palap op =
  Array.fold_left
    (fun acc s -> min acc palap.(s))
    st.time_limit
    (Graph.succ_indices st.g (index st op))

(* Committing an operation pins a start time, which caps the windows of its
   still-unassigned neighbours. An operation whose predecessors are still
   free but whose successors are all placed (or are primary outputs, which
   are placed late anyway) should therefore sit as LATE as possible;
   the default is as early as possible. This mirrors the palap placement of
   sinks in [fresh_candidate]. Locked mode keeps every start, so it never
   prefers; before the lock an op is locked exactly when it is committed. *)
let prefer_late st op =
  let i = index st op in
  let committed j = st.locked.(j) >= 0 in
  (not st.time_locked)
  && Array.for_all
       (fun s ->
         committed s
         ||
         match (Graph.node_at st.g s).Graph.kind with
         | Op.Output -> true
         | Op.Add | Op.Sub | Op.Mult | Op.Comp | Op.Input -> false)
       (Graph.succ_indices st.g i)
  && Array.exists (fun p -> not (committed p)) (Graph.pred_indices st.g i)

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

(* Where [op] would run if merged onto [inst]: [Some None] on the
   instance's own module, [Some (Some m)] after a retype to [m], the
   cheapest other module that covers every kind the instance would host,
   and [None] when neither exists. [~retype:false] asks for no retype. *)
let merge_target ?(retype = true) st op inst =
  let kind = Graph.kind st.g op in
  if Module_spec.implements inst.spec kind then Some None
  else if not retype then None
  else
    let kinds =
      kind :: List.map (fun (q, _) -> Graph.kind st.g q) inst.placed
      |> List.sort_uniq Op.compare
    in
    best st ~by:by_area
      (fun m ->
        List.for_all (Module_spec.implements m) kinds
        && not (Module_spec.equal m inst.spec))
      (Library.to_list st.lib)
    |> Option.map Option.some

(* All timing constraints of a retype: every already-placed op keeps its
   start but runs [m.latency] cycles, so intervals must stay disjoint and
   each must still meet its successors' deadlines. *)
let retype_timing_ok st palap inst (m : Module_spec.t) =
  let d = m.latency in
  Slots.spaced inst.starts ~d
  && List.for_all (fun (op, t) -> t + d <= deadline st palap op) inst.placed

let fresh_gain st op = -.(Hashtbl.find st.default_spec op).Module_spec.area

(* Default area saved, less the retype's upgrade cost and the mux input. *)
let merge_gain st op inst retype =
  let saved = (Hashtbl.find st.default_spec op).Module_spec.area in
  let upgrade_cost =
    match retype with
    | Some (m : Module_spec.t) -> m.area -. inst.spec.Module_spec.area
    | None -> 0.
  in
  saved -. upgrade_cost -. mux_penalty st op

let gain_of st = function
  | Fresh { op; _ } -> fresh_gain st op
  | Merge { op; inst; retype; _ } -> merge_gain st op inst retype

(* Best merge of [op] onto one specific [inst], or [None]. Split out from
   the all-instances enumeration so the candidate store can evaluate a
   single (operation, instance) entry on demand. *)
let merge_candidate st pasap palap op inst =
  let consider (m : Module_spec.t) retype =
    let d = m.Module_spec.latency in
    let lo = earliest_start st pasap ?trial:(Option.map (fun r -> (inst, r)) retype) op in
    let hi = deadline st palap op - d in
    let lo, hi =
      if st.time_locked then
        let t = st.locked.(index st op) in
        (max lo t, min hi t)
      else (lo, hi)
    in
    if st.time_locked && not (Module_spec.equal m (Hashtbl.find st.default_spec op))
    then None (* locked mode must not change the power profile shape *)
    else
      let placements =
        if prefer_late st op then
          [
            Slots.latest inst.starts ~d ~lo ~hi;
            Slots.earliest inst.starts ~d ~lo ~hi;
          ]
        else [ Slots.earliest inst.starts ~d ~lo ~hi ]
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
  match merge_target ~retype:(not st.time_locked) st op inst with
  | Some None -> consider inst.spec None
  | Some (Some m)
    when retype_timing_ok st palap inst m && under_cap st m.Module_spec.name ->
    consider m (Some m)
  | Some (Some _) | None -> None

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
      best st ~by:by_area
        (fun m -> under_cap st m.Module_spec.name)
        (Library.candidates st.lib (Graph.kind st.g op))
  in
  match spec with
  | None -> None
  | Some spec ->
    let i = index st op in
    let late = palap.(i) in
    let start =
      if
        prefer_late st op
        && Profile.fits st.assigned_profile ~start:late
             ~latency:spec.Module_spec.latency ~power:spec.Module_spec.power
             ~limit:st.power_limit
      then late
      else pasap.(i)
    in
    Some (Fresh { op; spec; start })

(* Equal-gain ties resolve in dataflow order (earlier pasap start first):
   committing a consumer before its producer would cap the producer's
   deadline and destroy sharing opportunities. *)
let decision_order st pasap palap a b =
  let ga = gain_of st a and gb = gain_of st b in
  if not (Float.equal ga gb) then Float.compare gb ga
  else
    let op_of = function Merge { op; _ } | Fresh { op; _ } -> op in
    let ia = index st (op_of a) and ib = index st (op_of b) in
    let ta = pasap.(ia) and tb = pasap.(ib) in
    if ta <> tb then Int.compare ta tb
    else
    let sa = palap.(ia) - ta and sb = palap.(ib) - tb in
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

(* Current gain of an entry: [gain_of] on the decision the entry would
   produce; [None] when no retype target exists (park it). *)
let entry_gain st e =
  match e.c_target with
  | T_fresh -> Some (fresh_gain st e.c_op)
  | T_inst inst ->
    Option.map (merge_gain st e.c_op inst) (merge_target st e.c_op inst)

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

(* Re-account [inst]'s placed operations from its module to [m] in the
   committed profile. *)
let respec st inst (m : Module_spec.t) =
  let old = inst.spec in
  List.iter
    (fun (_, t) ->
      Profile.remove st.assigned_profile ~start:t ~latency:old.latency
        ~power:old.power)
    inst.placed;
  inst.spec <- m;
  List.iter
    (fun (op, t) ->
      set_spec st (index st op) m;
      Profile.add st.assigned_profile ~start:t ~latency:m.latency ~power:m.power)
    inst.placed

(* Sets [op]'s scheduler inputs to module [m] locked at [start]; the
   returned thunk puts back what was there. *)
let pin st op start m =
  let i = index st op in
  let latency = st.latency.(i) and power = st.power.(i)
  and locked = st.locked.(i) in
  set_spec st i m;
  st.locked.(i) <- start;
  fun () ->
    st.latency.(i) <- latency;
    st.power.(i) <- power;
    st.locked.(i) <- locked

let commit st decision =
  match decision with
  | Fresh { op; spec; start } ->
    let unpin = pin st op start spec in
    let starts = Slots.create () in
    Slots.add starts start;
    let inst =
      { inst_id = st.next_inst; spec; placed = [ (op, start) ]; starts }
    in
    st.next_inst <- st.next_inst + 1;
    st.instances <- inst :: st.instances;
    Hashtbl.replace st.assigned op (inst, start);
    Profile.add st.assigned_profile ~start ~latency:spec.Module_spec.latency
      ~power:spec.Module_spec.power;
    {
      revert =
        (fun () ->
          unpin ();
          Profile.remove st.assigned_profile ~start
            ~latency:spec.Module_spec.latency ~power:spec.Module_spec.power;
          Hashtbl.remove st.assigned op;
          st.instances <- List.filter (fun i -> i != inst) st.instances;
          st.next_inst <- st.next_inst - 1);
    }
  | Merge { op; inst; start; retype } ->
    let old_spec = inst.spec in
    Option.iter (respec st inst) retype;
    let unpin = pin st op start inst.spec in
    inst.placed <- (op, start) :: inst.placed;
    Slots.add inst.starts start;
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
          Slots.remove inst.starts start;
          Hashtbl.remove st.assigned op;
          unpin ();
          if Option.is_some retype then respec st inst old_spec);
    }

(* The op a decision places, its start cycle and the module it runs on, as
   trace args: on [engine.commit], and on [engine.backtrack] for the
   decision it undid. *)
let decision_args decision =
  let op, start, (m : Module_spec.t) =
    match decision with
    | Merge { op; inst; start; retype } ->
      (op, start, Option.value retype ~default:inst.spec)
    | Fresh { op; spec; start } -> (op, start, spec)
  in
  [
    ("op", string_of_int op);
    ("start", string_of_int start);
    ("module", m.name);
  ]

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
        (( "decision",
           match decision with
           | Merge { retype = None; _ } -> "merge"
           | Merge { retype = Some _; _ } -> "retype-merge"
           | Fresh _ -> "fresh" )
        :: ("gain", Printf.sprintf "%.1f" (gain_of st decision))
        :: decision_args decision)
      "engine.commit"

(* Book-keeping after a validated commit. *)
let accept st sto decision =
  note_commit st decision;
  store_note_commit st sto decision

(* --- main loop -------------------------------------------------------- *)

let lock_unassigned st valid_pasap =
  st.time_locked <- true;
  Hashtbl.reset st.locked_times;
  List.iter
    (fun op ->
      let i = index st op in
      Hashtbl.replace st.locked_times op valid_pasap.(i);
      st.locked.(i) <- valid_pasap.(i))
    (unassigned st)

(* Self-check: after a backtrack-and-lock event the engine trusts
   [valid_pasap] as-is for every remaining decision, so a silently invalid
   schedule here would corrupt everything downstream. Re-lint it. *)
let self_check_lock st s =
  match
    Schedule.validate st.g (schedule_of st s) ~info:(info st)
      ~time_limit:st.time_limit
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
      (fun i spec ->
        { inst_id = i; spec; placed = []; starts = Slots.create () })
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
      latency = Array.make (Graph.node_count g) 0;
      power = Array.make (Graph.node_count g) 0.;
      locked = Array.make (Graph.node_count g) (-1);
      n_merges = 0;
      n_retypes = 0;
      n_fresh = 0;
      n_backtracks = 0;
      n_upgrades = 0;
    }
  in
  Hashtbl.iter (fun op m -> set_spec st (index st op) m) default_spec;
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
    (* Once every operation is locked, a merge keeps the op's locked start
       and default module, and a fresh instance takes the default module at
       the locked start or is not offered. No commit then changes a start,
       a latency or a power, so palap, and pasap after each commit, would
       return the locked schedule [valid_pasap] itself: it stands in for
       both, after the one deadline poll such a call makes. [self_check]
       still runs both schedulers, and fails if either returns anything
       else. *)
    let step valid_pasap =
      let locked = st.time_locked in
      let reschedule run =
        if locked && not self_check then
          if cancelled st () then
            Pasap.Infeasible { node = -1; reason = "cancelled" }
          else Pasap.Feasible valid_pasap
        else run st
      in
      let diverges = function
        | _ when not locked -> false
        | Pasap.Feasible s -> s <> valid_pasap
        | Pasap.Infeasible _ -> interrupted st = None
      in
      let diverged name =
        `Error
          (Printf.sprintf
             "self-check: %s after the lock differs from the locked schedule"
             name)
      in
      (* [self_check] rebuilds the schedulers' inputs from scratch before
         each scheduler call of the iteration. *)
      let drift () = if self_check then state_drift st else None in
      match drift () with
      | Some e -> `Error e
      | None ->
      let palap = reschedule run_palap in
      if diverges palap then diverged "palap"
      else
      let palap =
        match palap with
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
        let undo = commit st best in
        match drift () with
        | Some e -> `Error e
        | None ->
        match reschedule run_pasap with
        | Pasap.Infeasible _ when interrupted st <> None ->
          (* The re-schedule was cancelled by the deadline, not genuinely
             infeasible: undo the trial commit (it was never validated) and
             let [iterate] wind down from the last valid schedule. *)
          undo.revert ();
          `Deadline (Option.get (interrupted st))
        | next when diverges next -> diverged "pasap"
        | Pasap.Feasible next_pasap ->
          accept st sto best;
          `Continue next_pasap
        | Pasap.Infeasible { node; reason } ->
          undo.revert ();
          st.n_backtracks <- st.n_backtracks + 1;
          Metrics.incr m_backtracks;
          if Trace.observed () then
            Trace.instant ~cat:"engine"
              ~args:
                (("node", string_of_int node)
                :: ("reason", reason)
                :: decision_args best)
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
              accept st sto locked_best;
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
          let start = valid_pasap.(index st op) in
          ignore (commit st (Fresh { op; spec; start })))
        remaining;
      let forced = List.length remaining in
      Metrics.incr ~by:forced m_forced;
      Metrics.incr m_partials;
      if Trace.observed () then
        Trace.instant ~cat:"engine"
          ~args:
            [
              ("reason", Budget.reason_to_string reason);
              ("forced", string_of_int forced);
            ]
          "engine.deadline";
      Deadline_exceeded { reason; forced }
    in
    (* Every committed op is a node of [g], so the run is complete once
       [assigned] holds as many entries as [g] has nodes. *)
    let n_nodes = Graph.node_count g in
    let rec iterate valid_pasap =
      if Hashtbl.length st.assigned = n_nodes then Ok Complete
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
     Trace.note_crash ~origin:"engine.run" e;
     Printexc.raise_with_backtrace e bt)
