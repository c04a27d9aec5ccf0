(** Design-space exploration over the (time, power) constraint grid — the
    paper's "investigated different regions in the time-power-constraint
    space", packaged as an API. Used by the CLI sweep command and the
    Figure 2 harness. *)

type point = {
  time_limit : int;
  power_limit : float;
  result : result;
}

and result =
  | Feasible of { area : float; peak : float; design : Design.t }
  | Infeasible of string
  | Pruned of string
      (** statically proven infeasible by preflight
          ({!Pchls_preflight.Preflight}) — the engine never ran; the string
          is the certificate ("PRE0xx: ..."). Cached as [Store.Infeasible]
          under a ["preflight: "] reason prefix, so warm caches replay
          prunes as [Pruned] and non-preflight consumers still read them as
          sound infeasibility. *)
  | Failed of string
      (** the point's evaluation crashed (or was skipped past a deadline) —
          unlike [Infeasible], this says nothing about the problem itself
          and is never cached *)

(** [fingerprint ~library g] is the content-addressed cache key context of
    one synthesis configuration: an engine-version salt combined with
    canonical digests of the graph ({!Pchls_cache.Fingerprint.graph} — so
    node-id renumberings share entries), the FU library, the cost model and
    the policy. {!Store.key}s pair it with the (T, P<) grid coordinates.
    Defaults as {!Engine.run}. *)
val fingerprint :
  ?cost_model:Cost_model.t ->
  ?policy:Engine.policy ->
  library:Pchls_fulib.Library.t ->
  Pchls_dfg.Graph.t ->
  Pchls_cache.Fingerprint.t

(** [certificate ~library g ~time_limit ~power_limit] is the first
    infeasibility certificate of the static bound analysis
    ({!Pchls_preflight.Preflight.analyze}, without the exact area search)
    as ["PRE0xx: ..."], if any. This is the reason a [preflight] run gives
    for a [Pruned] point. Never raises: an out-of-range T or P< yields
    [None]. *)
val certificate :
  library:Pchls_fulib.Library.t ->
  Pchls_dfg.Graph.t ->
  time_limit:int ->
  power_limit:float ->
  string option

(** [solve ~library g ~time_limit ~power_limit] synthesizes one grid point,
    consulting [cache] when given (as in {!sweep}); [fp] skips re-deriving
    the {!fingerprint}. This is the unit of work behind {!sweep} and
    {!tighten} — exposed so callers (e.g. [pchls profile]) can run a single
    cache-backed point under a tracing sink.

    [deadline] is forwarded to {!Engine.run}; a result produced under an
    exhausted budget (a forced partial design, or a deadline-caused
    infeasibility) is returned but never cached, since it describes the
    deadline rather than the problem.

    [preflight] (default [false]) consults the static bound analysis on a
    cache miss: a certificate yields [Pruned] without running the engine. *)
val solve :
  ?cost_model:Cost_model.t ->
  ?policy:Engine.policy ->
  ?deadline:Pchls_resil.Budget.t ->
  ?preflight:bool ->
  library:Pchls_fulib.Library.t ->
  ?cache:Pchls_cache.Store.t ->
  ?fp:Pchls_cache.Fingerprint.t ->
  Pchls_dfg.Graph.t ->
  time_limit:int ->
  power_limit:float ->
  result

(** [sweep ~library g ~times ~powers] synthesizes every grid point, in row
    (time) then column (power) order. Optional arguments as {!Engine.run}.

    [jobs] (default 1; below 1 counts as 1) evaluates grid points on a
    {!Pchls_par.Pool} of that many domains — synthesis is pure, so the
    result is point-for-point identical to the sequential sweep, whatever
    the completion order. One job runs inline through the same pool path,
    so retries and fault points behave alike at every [jobs].

    [cache] memoizes each point under {!fingerprint}: hits skip the engine
    entirely (feasible entries are rebuilt into full designs via
    [Design.assemble]); misses are solved and stored. The store is
    thread-safe, so the same cache may serve a parallel sweep. As in
    {!solve}, [fp] skips re-deriving the fingerprint.

    Points are evaluated in isolation: an evaluation that crashes — or an
    armed ["explore.point"] / ["pool.worker"] fault ({!Pchls_resil.Fault},
    keyed by grid index) that survives the pool's one retry — yields a
    per-point [Failed] while every other point still completes. With
    [deadline], points reached after the budget expires come back
    [Failed "deadline exceeded before evaluation"] without running the
    engine, and the point being evaluated when it expires returns the
    engine's anytime partial result. A sweep never raises because of a
    single point.

    [preflight] (default [false]) statically analyses every grid point in
    the calling domain first: points with an infeasibility certificate come
    back [Pruned] without ever being dispatched to the pool (and are cached
    like engine results), so workers only see points with a chance of a
    design. Sound — a pruned point is provably infeasible — but off by
    default so existing sweeps stay byte-identical. *)
val sweep :
  ?cost_model:Cost_model.t ->
  ?policy:Engine.policy ->
  ?jobs:int ->
  ?cache:Pchls_cache.Store.t ->
  ?fp:Pchls_cache.Fingerprint.t ->
  ?deadline:Pchls_resil.Budget.t ->
  ?preflight:bool ->
  library:Pchls_fulib.Library.t ->
  Pchls_dfg.Graph.t ->
  times:int list ->
  powers:float list ->
  point list

(** [min_feasible_power points ~time_limit] is the smallest power budget of
    a feasible point at that time limit, if any. *)
val min_feasible_power : point list -> time_limit:int -> float option

(** [pareto points] keeps the non-dominated feasible points: point [a]
    dominates [b] when [a] is no worse on time limit, power limit and area,
    and strictly better on at least one. Result sorted by (time, power). *)
val pareto : point list -> point list

(** [render_table points] formats the grid as the area table printed by the
    Figure 2 harness (['-'] marks infeasible points, [∅] statically pruned
    ones, ['!'] points whose evaluation failed), ending with a one-line
    legend. Rows are time limits,
    columns power limits, both sorted ascending with duplicates collapsed,
    so the rendering is stable whatever order or multiplicity the sweep's
    inputs had. *)
val render_table : point list -> string

(** [tighten ~library g ~time_limit ~power_limit] refines area by re-running
    the engine under artificially *tightened* power budgets: a tighter budget
    serialises operations, which often enables more sharing, and any design
    meeting a tighter budget also meets [power_limit]. Budgets descend from
    [power_limit] (or from the first design's measured peak when the limit is
    infinite), each step taking the smaller of 3/4 of the previous budget and
    just under the previous design's peak, for at most 6 further
    syntheses. Returns the smallest-area design found; [Error] only when
    even the original budget is infeasible.

    [cache] memoizes every ladder attempt exactly as in {!sweep}, so
    repeated tightenings of the same configuration re-run nothing. *)
val tighten :
  ?cost_model:Cost_model.t ->
  ?policy:Engine.policy ->
  ?cache:Pchls_cache.Store.t ->
  ?deadline:Pchls_resil.Budget.t ->
  library:Pchls_fulib.Library.t ->
  Pchls_dfg.Graph.t ->
  time_limit:int ->
  power_limit:float ->
  (Design.t, string) Stdlib.result
