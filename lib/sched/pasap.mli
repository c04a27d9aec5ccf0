(** Power-constrained ASAP scheduling — the paper's [pasap] algorithm (§2).

    Operations are scheduled as soon as possible, but an operation may only
    occupy cycles whose remaining power budget admits it: when the interval
    [[t_i+o_i, t_i+o_i+d_i)] would overflow the per-cycle limit, the
    operation's offset [o_i] grows one cycle at a time until the interval
    fits or leaves the horizon (infeasible).

    With [power_limit = infinity] (the default) this degenerates to classic
    ASAP. The scheduler steps through the cycles of the horizon in order,
    keeping each ready operation in the bucket of its tentative start.
    Ready operations are still taken deterministically: smallest tentative
    start first, then largest latency-weighted distance to a sink, then
    smallest id. A rejected operation moves straight to the next start the
    current power ledger admits, which is always a later cycle, so every
    bucket is complete when the loop reaches it. *)

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

    [cancelled] is polled once per placement attempt, and once more when
    every operation is placed; when it turns true the run
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
