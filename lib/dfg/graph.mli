(** Immutable data-flow graphs.

    A graph is a directed acyclic graph whose nodes are operations
    ({!Op.kind}) and whose edges are data dependencies: an edge [(i, j)] means
    operation [j] consumes the value produced by operation [i], so [j] may
    only start once [i] has finished.

    Construction validates all structural invariants once; every value of
    type {!t} is therefore known to be a well-formed DAG. Nodes sit at dense
    indices in ascending id order, with index arrays for predecessors,
    successors and the topological order. Nothing is mutated after
    {!create}, so any number of domains may read one graph at once. *)

type node = {
  id : int;  (** unique non-negative identifier *)
  name : string;  (** human-readable label, e.g. ["m1"] *)
  kind : Op.kind;
}

type t

(** [create ~name ~nodes ~edges] builds a validated graph.

    Errors when: a node id is negative or duplicated; an edge endpoint does
    not exist; an edge is a self-loop or duplicated; the graph has a cycle;
    an [Input] node has a predecessor; an [Output] node has a successor. *)
val create :
  name:string -> nodes:node list -> edges:(int * int) list -> (t, string) result

(** [create_exn] is {!create} but raises [Invalid_argument] on error. *)
val create_exn : name:string -> nodes:node list -> edges:(int * int) list -> t

val name : t -> string
val node_count : t -> int
val edge_count : t -> int

(** [nodes g] lists all nodes in increasing id order. *)
val nodes : t -> node list

(** [node_ids g] lists all ids in increasing order. *)
val node_ids : t -> int list

val mem : t -> int -> bool

(** [node g id] raises [Not_found] if [id] is absent. *)
val node : t -> int -> node

val find_node : t -> int -> node option
val kind : t -> int -> Op.kind
val node_name : t -> int -> string

(** [edges g] lists all edges, sorted lexicographically. *)
val edges : t -> (int * int) list

val is_edge : t -> src:int -> dst:int -> bool

(** [succs g id] are the direct consumers of [id], in increasing order,
    in a list built per call. *)
val succs : t -> int -> int list

(** [preds g id] are the direct producers feeding [id], in increasing order,
    in a list built per call. *)
val preds : t -> int -> int list

(** [sources g] are the nodes with no predecessor. *)
val sources : t -> int list

(** [sinks g] are the nodes with no successor. *)
val sinks : t -> int list

(** [topological_order g] lists every node id such that producers come before
    consumers. The order is deterministic (smallest-id-first Kahn). *)
val topological_order : t -> int list

(** [nodes_of_kind g k] lists ids of nodes of kind [k], in increasing order. *)
val nodes_of_kind : t -> Op.kind -> int list

(** [kind_counts g] tallies node kinds, listing only kinds that occur. *)
val kind_counts : t -> (Op.kind * int) list

(** [critical_path g ~latency] is the maximum, over all paths, of the summed
    node latencies — i.e. the minimum possible makespan given unlimited
    resources. [latency id] must be positive. *)
val critical_path : t -> latency:(int -> int) -> int

(** [distances_to_sink g ~latency] is, for every node, the longest
    latency-weighted path from that node (inclusive) to any sink — the
    list-scheduling priority. [distances_from_source g ~latency] is, for
    every node, the longest latency-weighted path from any source up to and
    including that node.

    Both read {!longest_paths}, the one longest-path pass (on {!reverse}
    for paths from a source, as {!critical_path} does): the partial
    application [distances_to_sink g ~latency] runs it, and the returned
    lookup is an index search. Bind it once and look nodes up in it; do
    not re-apply it per node. The lookup raises [Not_found] on absent ids. *)
val distances_to_sink : t -> latency:(int -> int) -> int -> int

val distances_from_source : t -> latency:(int -> int) -> int -> int

(** [reverse g] flips every edge, sharing [g]'s nodes and index arrays;
    only the topological order is copied, reversed. The result skips the
    Input/Output orientation checks; it is meant for time-reversed
    scheduling (ALAP family), not as a user-facing graph. *)
val reverse : t -> t

(** {2 Indices}

    A node's index is its rank in ascending id order. The arrays returned
    are the graph's own: read them, never write them. *)

(** [index g id] is [id]'s index. @raise Not_found if [id] is absent. *)
val index : t -> int -> int

val node_at : t -> int -> node

(** The direct producers and consumers of an index, ascending. *)
val pred_indices : t -> int -> int array

val succ_indices : t -> int -> int array

(** [longest_paths g ~latency] is, per index, the longest path from that
    node (inclusive) to any sink, with [latency] given by index: one pass,
    consumers first; on [reverse g] the paths from any source. *)
val longest_paths : t -> latency:(int -> int) -> int array

val pp : Format.formatter -> t -> unit
