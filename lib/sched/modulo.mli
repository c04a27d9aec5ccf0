(** Power-constrained modulo scheduling — the pipelined extension of
    {!Pasap}, in the direction the paper leaves as future work.

    A pipelined datapath starts a new iteration every [ii] cycles
    (the initiation interval), so in steady state the power drawn at
    congruence class [c] is the *fold* of the whole schedule modulo [ii].
    [Pasap.run ~period:ii] stretches the ASAP schedule as pasap does, but
    checks each tentative placement against that folded ledger: the
    resulting schedule's steady-state power stays at or below the limit at
    every class, for any number of overlapping iterations.

    Like [pasap] this is schedule-only (no resource binding); it bounds the
    power side of pipelining. A lower bound on the feasible interval is
    [ceil (energy / limit)] — {!min_feasible_ii} searches upward from it. *)

(** [steady_state_peak s ~info ~ii] is the folded profile's peak of a given
    schedule — the per-cycle power once the pipeline is full. *)
val steady_state_peak : Schedule.t -> info:(int -> Schedule.op_info) -> ii:int -> float

(** [min_feasible_ii g ~info ~horizon ~power_limit] is the smallest
    initiation interval (searched upward from the energy bound, capped at
    [horizon]) for which [Pasap.run ~period] succeeds, with the schedule;
    [None] when even [ii = horizon] fails. *)
val min_feasible_ii :
  Pchls_dfg.Graph.t ->
  info:(int -> Schedule.op_info) ->
  horizon:int ->
  power_limit:float ->
  (int * Schedule.t) option
