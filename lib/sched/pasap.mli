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

type 'a answer =
  | Feasible of 'a
  | Infeasible of { node : int; reason : string }
      (** [node] could not be placed within the horizon *)

type outcome = Schedule.t answer

(** [starts g ~latency ~power ~locked ~horizon ?power_limit ?period
    ?cancelled ()] schedules every node of [g], with everything given
    per index in [g]'s order ({!Pchls_dfg.Graph.index}): [latency.(i)]
    and [power.(i)] describe the module index [i] runs on, and
    [locked.(i)] is its locked start, or [-1] when it is free. The answer
    holds the start of every index in a fresh array that the caller
    owns; the three argument arrays are only read.

    [period] makes this a modulo scheduler for a pipelined datapath that
    starts a new iteration every [period] cycles: placements are checked
    against the steady-state power of each congruence class modulo
    [period] ({!Pchls_power.Folded}) instead of the per-cycle profile, so
    the schedule stays at or below [power_limit] however many iterations
    overlap. Without it every cycle of [[0, horizon)] is checked on its
    own.

    Locked operations (the paper's backtracking locks all unscheduled
    operations to the last valid pasap schedule) keep their starts, and
    their power is reserved before anything else is placed. A locked
    start outside [[0, horizon - latency]], or one that begins before a
    predecessor ends, makes the run infeasible.

    The ledger's totals are float sums, so the order in which locked
    power is reserved can change a cycle's total in its last bit; a
    placement can then differ only if that total lies within a few ulps
    of [power_limit + Profile.eps]. [lock_order] sets that order: the
    locked indices, each once. It defaults to ascending index order and,
    when given, alone decides which indices are locked. When the locked
    operations alone exceed [power_limit], the answer names
    [overload_node], by default the id at [lock_order]'s head.

    [cancelled] is polled once per test of an operation at a cycle, and
    once more when every operation is placed; when it turns true the run
    stops with [Infeasible {node = -1; reason = "cancelled"}]. This is how
    {!Pchls_core.Engine} deadlines interrupt a scheduler stuck in the
    power-feasibility delay loop mid-iteration.

    @raise Invalid_argument if [horizon < 0], [period < 1], an array's
    length is not [g]'s node count, or [lock_order] repeats an index. *)
val starts :
  Pchls_dfg.Graph.t ->
  latency:int array ->
  power:float array ->
  locked:int array ->
  ?lock_order:int array ->
  ?overload_node:int ->
  horizon:int ->
  ?power_limit:float ->
  ?period:int ->
  ?cancelled:(unit -> bool) ->
  unit ->
  int array answer

(** [run g ~info ~horizon ?power_limit ?period ?locked ?cancelled ()] is
    {!starts} over node ids: [info] gives each node's latency and power,
    [locked] pairs node ids with their locked starts, and the answer is a
    {!Schedule.t}. Locked power is reserved in the order a hash table
    built from [locked] iterates it, and the node named when the locked
    operations alone exceed the limit is [locked]'s head.

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

(** [adapt fn g ~info ~locked schedule] is the list form behind {!run}
    and {!Palap.run}: it checks [locked] (raising [Invalid_argument] with
    [fn] in the message for an id not in [g] or locked twice), passes
    [schedule] the per-index arrays, [run]'s lock order and overload node,
    and turns the starts it answers into a {!Schedule.t}. *)
val adapt :
  string ->
  Pchls_dfg.Graph.t ->
  info:(int -> Schedule.op_info) ->
  locked:(int * int) list ->
  (latency:int array ->
  power:float array ->
  locked:int array ->
  lock_order:int array ->
  overload_node:int ->
  int array answer) ->
  outcome

(** [schedule_exn outcome] extracts the schedule.
    @raise Failure on [Infeasible]. *)
val schedule_exn : outcome -> Schedule.t
