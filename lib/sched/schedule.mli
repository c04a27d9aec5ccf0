(** Schedules: a start time (control step) for every operation.

    Scheduling is decoupled from the functional-unit library through
    {!op_info}: a scheduler only needs each operation's latency and per-cycle
    power, supplied by an [info] function. The synthesis engine derives
    [info] from its current tentative binding. *)

type op_info = {
  latency : int;  (** execution delay in cycles, >= 1 *)
  power : float;  (** power drawn in each executing cycle *)
}

(** Total start-time map, immutable. *)
type t

val empty : t
val of_alist : (int * int) list -> t
val set : t -> int -> int -> t
val mem : t -> int -> bool
val find : t -> int -> int option

(** [start s id] raises [Not_found] when [id] is unscheduled. *)
val start : t -> int -> int

val cardinal : t -> int

(** [bindings s] lists (node, start) pairs in increasing node order. *)
val bindings : t -> (int * int) list

(** [finish s ~info id] is [start + latency]. *)
val finish : t -> info:(int -> op_info) -> int -> int

(** [makespan s ~info] is the maximum finish time over all scheduled
    operations ([0] when empty). *)
val makespan : t -> info:(int -> op_info) -> int

(** [profile s ~info ~horizon] accumulates every scheduled operation's power
    over its execution interval.
    @raise Invalid_argument if an operation's interval leaves the horizon. *)
val profile : t -> info:(int -> op_info) -> horizon:int -> Pchls_power.Profile.t

(** [lint g s ~info ?time_limit ?power_limit ()] checks the schedule is
    total over [g], respects precedences, and fits the optional latency and
    peak-power limits, reporting through the shared diagnostics channel:
    [SCH001] unscheduled node, [SCH002] negative start, [SCH003] precedence
    violation, [SCH004] latency exceeded, [SCH005] per-cycle power exceeded,
    [SCH006] non-positive [op_info] latency, [SCH007] (warning) stray
    schedule entry for a node not in [g]. The list is deterministically
    ordered ({!Pchls_diag.Diag.sort}) and empty for a clean schedule. *)
val lint :
  Pchls_dfg.Graph.t ->
  t ->
  info:(int -> op_info) ->
  ?time_limit:int ->
  ?power_limit:float ->
  unit ->
  Pchls_diag.Diag.t list

(** [validate g s ~info ?time_limit ?power_limit ()] is {!lint} as a result:
    [Ok ()] when no [Error]-severity diagnostic fired, otherwise [Error ds]
    with the full diagnostic list. *)
val validate :
  Pchls_dfg.Graph.t ->
  t ->
  info:(int -> op_info) ->
  ?time_limit:int ->
  ?power_limit:float ->
  unit ->
  (unit, Pchls_diag.Diag.t list) result

val pp : Format.formatter -> t -> unit
