(** The start cycles of the operations bound to one functional-unit
    instance, kept sorted, and the free-slot searches the engine's
    candidate selection makes on them.

    A probe of latency [d] at start [t] is free when its [d]-cycle
    interval overlaps no placed start's [d]-cycle interval, that is
    [|t - s| >= d] for every placed start [s]. The probe latency may
    differ from the instance's own, as in a retype trial. *)

type t

(** [create ()] holds no start. *)
val create : unit -> t

(** [add t s] records one more start [s]. *)
val add : t -> int -> unit

(** [remove t s] drops one occurrence of [s].
    @raise Not_found when [s] is not recorded. *)
val remove : t -> int -> unit

(** [to_list t] lists the starts in increasing order. *)
val to_list : t -> int list

(** [earliest t ~d ~lo ~hi] is the smallest free start in [[lo, hi]], or
    [None] (also when [lo > hi]). *)
val earliest : t -> d:int -> lo:int -> hi:int -> int option

(** [latest t ~d ~lo ~hi] is the largest free start in [[lo, hi]], or
    [None]. *)
val latest : t -> d:int -> lo:int -> hi:int -> int option

(** [spaced t ~d] holds when every two starts are at least [d] apart,
    so [d]-cycle intervals at them are disjoint. *)
val spaced : t -> d:int -> bool
