(** Single-flight execution: concurrent calls that share a key run the
    underlying computation once.

    [pchls serve] keys flights by the WL-fingerprint of the synthesis
    configuration plus its grid coordinates, so a thundering herd of
    identical [/synth] requests costs one engine run — the leader
    computes, every follower blocks on the flight and shares the outcome
    (including a raised exception). A flight is forgotten the moment it
    completes; later callers start a fresh one (and normally hit the
    result cache instead).

    All operations are thread-safe. Followers are counted in the
    [serve.coalesced] metric. *)

type 'a t

val create : unit -> 'a t

(** How a call's value was obtained. *)
type role =
  | Led  (** this call ran the computation *)
  | Joined  (** this call attached to an in-flight leader *)

(** [run t ~key f] — if no flight for [key] is active, runs [f ()] as
    the leader; otherwise blocks until the active flight finishes.
    Returns the shared outcome ([Error] when the leader raised — the
    exception is returned, not re-raised, so every waiter can decide how
    to report it) and this call's {!role}. *)
val run : 'a t -> key:string -> (unit -> 'a) -> ('a, exn) result * role

(** [in_flight t] — number of active flights (diagnostics). *)
val in_flight : 'a t -> int
