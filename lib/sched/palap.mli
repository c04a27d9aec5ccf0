(** Power-constrained ALAP scheduling — the paper's [palap], the
    time-reversed dual of {!Pasap}.

    Every operation is placed as late as possible within [horizon] while
    respecting the per-cycle power limit. Implemented by running {!Pasap} on
    the reversed graph and mirroring start times: [t = horizon - t_rev - d].
    With the default infinite [power_limit] this is classic ALAP. *)

(** [starts g ~latency ~power ~locked ~horizon ?power_limit ?cancelled ()]
    — same contract as {!Pasap.starts}: per-index arrays in [g]'s index
    order, [-1] for a free index, and a fresh array of starts the caller
    owns. [locked] starts are in the original (forward) time domain. Locked
    power is reserved in [lock_order] (default: ascending index order). *)
val starts :
  Pchls_dfg.Graph.t ->
  latency:int array ->
  power:float array ->
  locked:int array ->
  ?lock_order:int array ->
  ?overload_node:int ->
  horizon:int ->
  ?power_limit:float ->
  ?cancelled:(unit -> bool) ->
  unit ->
  int array Pasap.answer

(** [run g ~info ~horizon ?power_limit ?locked ?cancelled ()] — same
    contract as {!Pasap.run}, through {!Pasap.adapt}: locked power is
    reserved in the order of a hash table built from [locked], and an id
    not in [g] or locked twice raises [Invalid_argument] before anything
    else reads it. [locked] times are in the original (forward) time
    domain. *)
val run :
  Pchls_dfg.Graph.t ->
  info:(int -> Schedule.op_info) ->
  horizon:int ->
  ?power_limit:float ->
  ?locked:(int * int) list ->
  ?cancelled:(unit -> bool) ->
  unit ->
  Pasap.outcome
