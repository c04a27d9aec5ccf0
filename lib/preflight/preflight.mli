(** Static bound analysis over a DFG and a functional-unit library.

    Preflight answers, {e without running the synthesis engine}, three
    questions about an instance [(graph, library, T, P<)]:

    - how fast can any feasible schedule possibly be (latency lower bound,
      with a critical-path witness under min-delay module choice);
    - how much power must any feasible schedule draw per cycle (a
      demand lower-bound profile over operations whose ASAP/ALAP windows pin
      them to specific cycles, under min-power module choice);
    - how much functional-unit area must / can any binding cost (a lower
      bound from exact clique pricing on small graphs or an interval
      relaxation on large ones, and an upper bound from worst-case
      admissible module choice).

    Every bound is {e sound}: for any design the engine can synthesise under
    the same constraints, [latency_lb <= makespan], [demand_peak <= peak
    power], [energy_lb <= energy], and [fu_area_lb <= FU area <=
    fu_area_ub]. When a bound contradicts the constraints the instance is
    provably infeasible and {!analyze} returns a {!certificate} — a witness
    that {!verify} re-checks independently of the analysis that produced it.

    The sweep driver ({!Pchls_core.Explore}) uses certificates to prune grid
    points before spawning pool work; the fuzzer uses the bracketing
    invariant as a differential oracle. *)

(** An over-approximate start-time window: any feasible schedule within the
    analysed horizon starts the operation in [[earliest, latest]]. *)
type window = {
  earliest : int;
  latest : int;
}

(** [pinned w ~min_latency] is the execution interval the operation is
    certain to occupy, [[latest, earliest + min_latency)] — empty (i.e.
    [None]) when the window's slack is at least [min_latency]. *)
val pinned : window -> min_latency:int -> (int * int) option

type bounds = {
  horizon : int;
      (** the window horizon: [max time_limit latency_lb], so windows are
          well-formed even for latency-infeasible instances *)
  latency_lb : int;
      (** minimum makespan of any schedule: the latency-weighted critical
          path under min-delay admissible module choice, sharpened by the
          energy/power ratio when [power_limit] is finite *)
  critical_path : int list;
      (** witness chain (successive edges of the graph) whose summed minimum
          latencies reach the structural part of {!latency_lb} *)
  windows : (int * window) list;  (** per-op windows, increasing id order *)
  demand : float array;
      (** per-cycle power-demand lower bound over [0, horizon): the summed
          minimum power of operations pinned to each cycle *)
  demand_peak : float;
  demand_peak_cycle : int option;  (** first cycle attaining the peak *)
  energy_lb : float;
      (** summed minimum execution energy over all operations *)
  energy_capacity : float;
      (** [float time_limit *. power_limit]; [infinity] when unconstrained *)
  fu_area_lb : float;
  fu_area_ub : float;
  fu_area_exact : bool;
      (** [true] when {!fu_area_lb} came from exact clique pricing
          ({!Pchls_compat.Exact.min_area}) rather than the interval
          relaxation *)
}

(** A machine-checkable proof that the instance is infeasible. Each
    constructor carries enough of a witness for {!verify} to re-establish
    the contradiction from the graph and library alone. *)
type certificate =
  | No_admissible_module of {
      kind : Pchls_dfg.Op.kind;
      power_limit : float;
      min_power : float option;
          (** cheapest per-cycle power of any candidate implementing
              [kind]; [None] when the library does not cover [kind] *)
    }  (** some operation kind cannot execute at all under [P<] *)
  | Latency_exceeded of {
      limit : int;
      lower_bound : int;
      path : int list;
          (** a chain in the graph whose summed minimum latencies exceed
              [limit] *)
    }  (** no schedule fits the time limit *)
  | Cycle_overload of {
      cycle : int;
      demand : float;
      limit : float;
      pinned : (int * float) list;
          (** the witness cut: operations provably executing at [cycle],
              with the minimum per-cycle power each must draw *)
    }  (** some cycle must draw more than [P<] *)
  | Energy_deficit of {
      energy_lb : float;
      capacity : float;
    }
      (** total minimum energy exceeds [time_limit * power_limit], so no
          schedule fits both limits at once *)

type t = {
  graph_name : string;
  time_limit : int;
  power_limit : float;
  bounds : bounds option;
      (** [None] only when a {!No_admissible_module} certificate fired —
          no module pricing exists in that case *)
  certificates : certificate list;
}

(** The largest graph, in operations, that {!analyze} prices with the
    exact clique search unless told otherwise: [12]. The search is
    exponential in the graph size. *)
val default_exact_max_vertices : int

(** [exact_fu_area ~max_vertices ~modules ~kind ~interval ids] is the one
    exact functional-unit area pricer: the cost of an optimal clique
    partition of the operations [ids] ({!Pchls_compat.Exact.min_area}).
    Two operations are compatible when some module of [modules] implements
    both kinds and their [interval]s do not overlap ([None] overlaps
    nothing), and a clique costs the cheapest module of [modules]
    implementing every member's kind. [None] when [ids] has more than
    [max_vertices] operations.

    {!analyze} prices the modules admissible under [P<] over the pinned
    intervals, which gives a lower bound on any binding; the fuzzer's
    exact oracle prices every library module over a design's own schedule
    ({!Pchls_fuzz.Oracle.exact_fu_floor}).

    @raise Invalid_argument when no module of [modules] implements some
    operation's kind. *)
val exact_fu_area :
  max_vertices:int ->
  modules:Pchls_fulib.Module_spec.t list ->
  kind:(int -> Pchls_dfg.Op.kind) ->
  interval:(int -> (int * int) option) ->
  int list ->
  float option

(** [analyze ?exact_max_vertices ~library ~time_limit ?power_limit g]
    computes all bounds and certificates. [power_limit] defaults to
    [infinity]. [exact_max_vertices] (default {!default_exact_max_vertices})
    caps the exact clique-pricing area bound; graphs above it use the
    interval relaxation, and [0] disables the exact search entirely (the
    cheap configuration the sweep pruner uses).

    @raise Invalid_argument if [time_limit < 1] or [power_limit <= 0]
    (mirrors {!Pchls_core.Engine.run}). *)
val analyze :
  ?exact_max_vertices:int ->
  library:Pchls_fulib.Library.t ->
  time_limit:int ->
  ?power_limit:float ->
  Pchls_dfg.Graph.t ->
  t

(** [infeasible r] is [true] when at least one certificate fired. *)
val infeasible : t -> bool

val first_certificate : t -> certificate option

(** [verify ~library ~time_limit ?power_limit g c] re-checks certificate
    [c] against the instance from scratch: it recomputes minimum latencies,
    powers and windows itself and confirms the claimed contradiction, so a
    bug in {!analyze} cannot vouch for its own output. [Error reason]
    explains the first discrepancy found. *)
val verify :
  library:Pchls_fulib.Library.t ->
  time_limit:int ->
  ?power_limit:float ->
  Pchls_dfg.Graph.t ->
  certificate ->
  (unit, string) result

(** The diagnostic code a certificate renders under: [PRE001] no admissible
    module, [PRE002] latency exceeded, [PRE003] cycle overload, [PRE004]
    energy deficit. ([PRE005] is the informational bounds summary,
    {!summary_diag}.) *)
val certificate_code : certificate -> string

(** One-line human rendering of the certificate's contradiction. *)
val certificate_to_string : certificate -> string

(** [to_diags r] maps each certificate to an [Error] diagnostic (codes as
    {!certificate_code}), deterministically ordered. Empty for feasible
    instances — preflight stays silent unless it can prove something. *)
val to_diags : t -> Pchls_diag.Diag.t list

(** [summary_diag r] is the [PRE005] [Info] diagnostic summarising the
    computed bounds (or the admissibility failure when [bounds = None]). *)
val summary_diag : t -> Pchls_diag.Diag.t

(** Multi-line human report: bounds table, verdict, certificates. *)
val render : t -> string

(** One JSON object: instance, bounds (or [null]), certificates with
    witnesses. Floats are rounded to 6 significant digits. *)
val to_json : t -> Pchls_obs.Json.t
