(** Fixed-capacity mutable bitsets over [0 .. n-1].

    The dense-integer workhorse behind {!Cgraph} adjacency rows and the
    engine's candidate bookkeeping: membership tests and single-bit updates
    are O(1), and whole-set scans walk 63 bits per word, so a 10k-vertex
    adjacency row costs ~160 words instead of a 10k-entry array. *)

type t

(** [create n] is the empty set over universe [0 .. n-1].
    @raise Invalid_argument if [n < 0]. *)
val create : int -> t

(** Universe size the set was created with. *)
val capacity : t -> int

(** [mem s i] tests membership. O(1).
    @raise Invalid_argument if [i] is outside the universe. *)
val mem : t -> int -> bool

(** [add s i] inserts [i]. O(1) and idempotent. *)
val add : t -> int -> unit

(** Number of members, counted by popcount over the words. *)
val cardinal : t -> int

(** [is_empty s] is [cardinal s = 0], without the full count. *)
val is_empty : t -> bool

(** [copy s] is an independent snapshot. *)
val copy : t -> t

(** [iter f s] applies [f] to each member in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [fold f s acc] folds over members in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [to_list s] lists the members in increasing order. *)
val to_list : t -> int list

(** [next_member s i] is the smallest member [>= i], or [None]. Drives
    ordered scans without materializing a list. *)
val next_member : t -> int -> int option

(** [inter_iter f a b] applies [f] to each member of the intersection in
    increasing order, without allocating it.
    @raise Invalid_argument when capacities differ. *)
val inter_iter : (int -> unit) -> t -> t -> unit

(** [subset a b] is [true] when every member of [a] is in [b].
    @raise Invalid_argument when capacities differ. *)
val subset : t -> t -> bool
