(** Weighted compatibility graphs.

    Vertices are integers [0 .. n-1]. An undirected edge [(u, v)] with weight
    [w] states that [u] and [v] are *compatible* — they may share one
    resource — and that merging them saves [w] (which may be negative when
    sharing is possible but unprofitable). Absence of an edge means the pair
    is incompatible.

    This is the abstract structure behind the paper's time-extended
    compatibility graph [V1] (inherited from Jou et al. [3]). The synthesis
    engine keeps its own gain-ordered candidate store instead; this graph
    serves the exact clique-partition references: preflight's exact area
    bound, the fuzz oracle's exact floor and the greedy-vs-exact
    ablation. *)

type t

(** [create ~n] is an edgeless graph over [n] vertices.
    @raise Invalid_argument if [n < 0]. *)
val create : n:int -> t

val vertex_count : t -> int

(** [add_edge g u v w] declares [u] and [v] compatible with weight [w],
    replacing any previous weight.
    @raise Invalid_argument on out-of-range or equal endpoints. *)
val add_edge : t -> int -> int -> float -> unit

val compatible : t -> int -> int -> bool
val weight : t -> int -> int -> float option

(** [edges g] lists [(u, v, w)] with [u < v], sorted by [(u, v)]. *)
val edges : t -> (int * int * float) list

val edge_count : t -> int

(** [neighbours g u] lists the vertices compatible with [u], increasing. *)
val neighbours : t -> int -> int list

(** [iter_neighbours g u f] applies [f] to each neighbour of [u] in
    increasing order without allocating the list. *)
val iter_neighbours : t -> int -> (int -> unit) -> unit

(** [is_clique g vs] checks all pairs of [vs] are compatible. *)
val is_clique : t -> int list -> bool

(** [clique_weight g vs] sums the internal edge weights of clique [vs].
    @raise Invalid_argument if [vs] is not a clique. *)
val clique_weight : t -> int list -> float
