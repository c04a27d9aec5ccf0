(** Register allocation by the left-edge algorithm.

    Every operation with at least one consumer produces a value whose
    lifetime runs from the cycle its result is available ([start + latency])
    through the start cycle of its last consumer, both inclusive. Values with
    disjoint lifetimes share a register. *)

type lifetime = {
  node : int;  (** producing operation *)
  birth : int;  (** first cycle the value is held *)
  death : int;  (** last cycle the value is read (>= birth) *)
}

(** [lifetimes g s ~info] computes the lifetime of every value, increasing
    producer id. Operations without successors (primary outputs) produce no
    datapath value and are omitted.
    @raise Not_found if some node of [g] is unscheduled in [s]. *)
val lifetimes :
  Pchls_dfg.Graph.t ->
  Pchls_sched.Schedule.t ->
  info:(int -> Pchls_sched.Schedule.op_info) ->
  lifetime list

(** [overlap a b] — inclusive interval intersection. *)
val overlap : lifetime -> lifetime -> bool

(** [left_edge lifetimes] packs values into a minimal number of registers
    (left-edge is optimal for interval graphs). Register [r] holds the
    producers listed in [(left_edge ls).(r)], each sorted by birth. *)
val left_edge : lifetime list -> int list array

(** [register_of allocation] maps each producer node to its register index;
    a node listed in two registers maps to the first. The partial
    application [register_of allocation] builds a node-to-register table
    once, and each lookup is then a table find: bind it once and look nodes
    up in it, do not re-apply it per node.
    @raise Not_found for nodes without a value. *)
val register_of : int list array -> int -> int
