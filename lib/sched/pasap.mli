(** Power-constrained ASAP scheduling — the paper's [pasap] algorithm (§2).

    Operations are scheduled as soon as possible, but an operation may only
    occupy cycles whose remaining power budget admits it: when the interval
    [[t_i+o_i, t_i+o_i+d_i)] would overflow the per-cycle limit, the
    operation's offset [o_i] grows one cycle at a time until the interval
    fits or leaves the horizon (infeasible).

    With [power_limit = infinity] (the default) this degenerates to classic
    ASAP. The scheduler steps through the cycles of the horizon in order.
    Ready operations that share a (latency, power) form a class, and an
    operation joins its class when the loop reaches its earliest start.
    At each cycle the loop tests the best waiting operation of the awake
    classes, by largest latency-weighted distance to a sink, then smallest
    id: one that fits is placed there, and one that does not puts its
    whole class to sleep until the next start the current power ledger
    admits. The ledger only gains power while operations wait, and every
    operation of a class gets the same verdict at the same start, so this
    places exactly what the paper's one-cycle delays place, in the same
    order, with at most one failed test per class per cycle.

    The [pasap.offset_delays] counter adds each placed operation's final
    offset [o_i], its start minus its earliest start. A run that stops
    infeasible or cancelled counts only the operations placed before it
    stopped. *)

type outcome =
  | Feasible of Schedule.t
  | Infeasible of { node : int; reason : string }
      (** [node] could not be placed within the horizon *)

(** [run g ~info ~horizon ?power_limit ?period ?locked ()] schedules every
    node of [g].

    [period] makes this a modulo scheduler for a pipelined datapath that
    starts a new iteration every [period] cycles: placements are checked
    against the steady-state power of each congruence class modulo
    [period] ({!Pchls_power.Folded}) instead of the per-cycle profile, so
    the schedule stays at or below [power_limit] however many iterations
    overlap. Without it every cycle of [[0, horizon)] is checked on its
    own.

    [locked] pre-places operations at fixed start times (the paper's
    backtracking locks all unscheduled operations to the last valid pasap
    schedule); their power is reserved before anything else is placed, and a
    locked operation violating a precedence or the horizon makes the run
    infeasible.

    [cancelled] is polled once per test of an operation at a cycle, and
    once more when every operation is placed; when it turns true the run
    stops with [Infeasible {node = -1; reason = "cancelled"}]. This is how
    {!Pchls_core.Engine} deadlines interrupt a scheduler stuck in the
    power-feasibility delay loop mid-iteration.

    @raise Invalid_argument if [horizon < 0], [period < 1], or a locked id
    is not in [g], or is locked twice. *)
val run :
  Pchls_dfg.Graph.t ->
  info:(int -> Schedule.op_info) ->
  horizon:int ->
  ?power_limit:float ->
  ?period:int ->
  ?locked:(int * int) list ->
  ?cancelled:(unit -> bool) ->
  unit ->
  outcome

(** [schedule_exn outcome] extracts the schedule.
    @raise Failure on [Infeasible]. *)
val schedule_exn : outcome -> Schedule.t
