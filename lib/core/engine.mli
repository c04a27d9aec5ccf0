(** The paper's synthesis algorithm: simultaneous scheduling, allocation and
    binding minimising area under a latency constraint [time_limit] and a
    peak per-cycle power constraint [power_limit].

    The engine follows the paper's structure:

    + every unbound operation carries a *default* module chosen by [policy]
      (upgraded towards faster modules when the initial pasap schedule misses
      the time constraint);
    + each iteration computes the power-constrained {!Pchls_sched.Pasap} and
      {!Pchls_sched.Palap} schedules, which bound each unbound operation's
      feasible start window;
    + the best sharing decision of the time-extended compatibility view is
      committed greedily — merging the operation onto an existing instance
      (possibly *retyping* the instance to a richer module, e.g. two adders
      and a subtracter becoming one ALU), or allocating a fresh instance of
      its default module. Gains are area saved minus an interconnect
      penalty;
    + after each commit, pasap feasibility is re-verified; on failure the
      engine backtracks one step and **locks** every unbound operation to
      its start time in the last valid pasap schedule, continuing with
      binding decisions only — exactly the paper's recovery rule. Those
      decisions keep every locked start and default module, so the
      locked schedule stays valid and no scheduler runs after the lock. *)

type policy = Min_power | Min_area | Min_latency

(** How a run ended. [Deadline_exceeded] marks an {e anytime} partial
    result: the engine stopped optimising when its {!Pchls_resil.Budget}
    ran out and force-completed the [forced] remaining operations as fresh
    instances of their default modules at their start times in the last
    valid pasap schedule — still precedence- and power-feasible by
    construction, just without the sharing a full run would have found
    (and possibly exceeding [max_instances] caps). *)
type completion =
  | Complete
  | Deadline_exceeded of { reason : Pchls_resil.Budget.reason; forced : int }

type stats = {
  decisions : int;  (** committed decisions (one per operation) *)
  merges : int;  (** same-module sharings *)
  retype_merges : int;  (** sharings that widened the instance's module *)
  new_instances : int;
  backtracks : int;  (** paper-style undo-and-lock events *)
  default_upgrades : int;  (** default modules promoted to meet [time_limit] *)
  completion : completion;  (** [Complete] unless a deadline intervened *)
}

type outcome =
  | Synthesized of Design.t * stats
  | Infeasible of { reason : string }

(** [run ~library ~time_limit ?power_limit g] synthesizes [g]. Defaults:
    [cost_model = Cost_model.default], [policy = Min_power],
    [power_limit = infinity] (pure time-constrained synthesis).

    [max_instances] caps how many instances of a named module type may be
    allocated (including by retyping), e.g. [["mult_ser", 1]] for a
    single-multiplier datapath. Unlisted module types are unlimited. Caps
    can make the problem infeasible, which is reported, not raised.

    [seed_instances] pre-populates the datapath with existing (empty)
    functional units, which merge decisions may reuse for free — the
    mechanism behind {!Shared} multi-behaviour synthesis. Seeds that end up
    hosting no operation are dropped from the resulting design.

    [self_check] re-lints the locked schedule after every
    backtrack-and-lock event via {!Pchls_sched.Schedule.validate}, still
    runs palap and pasap after the lock and requires both to return the
    locked schedule, cross-checks every iteration's candidate pick from
    the persistent gain-ordered store against a full enumeration-and-sort
    of all candidates, and before each scheduler call of an iteration
    rebuilds from scratch the per-operation latency, power and locked
    start the engine keeps for its schedulers and compares them; a
    failed check aborts
    synthesis as [Infeasible] with
    the diagnostic in the reason (defence in depth — it should never fire,
    and the run also ends with [Design.assemble]'s full validation either
    way).

    [deadline] makes the run {e anytime}: the budget is polled at every
    engine-iteration boundary, and its wall clock also interrupts the
    pasap/palap offset loops mid-iteration. On exhaustion the
    best design so far is completed and returned with
    [stats.completion = Deadline_exceeded _] — never an exception — or, if
    no feasible schedule existed yet, [Infeasible] with a
    ["deadline exceeded before a feasible design was found"] reason.
    Without [deadline] the run is byte-identical to an unbudgeted one.

    @raise Invalid_argument when [time_limit < 1], [power_limit <= 0], a
    cap is negative or names an unknown module, or the library does not
    cover some operation kind of [g]. *)
val run :
  ?cost_model:Cost_model.t ->
  ?policy:policy ->
  ?max_instances:(string * int) list ->
  ?seed_instances:Pchls_fulib.Module_spec.t list ->
  ?self_check:bool ->
  ?deadline:Pchls_resil.Budget.t ->
  library:Pchls_fulib.Library.t ->
  time_limit:int ->
  ?power_limit:float ->
  Pchls_dfg.Graph.t ->
  outcome

val policy_to_string : policy -> string
val pp_stats : Format.formatter -> stats -> unit
