(** Monotonic deadline / iteration-budget tokens for anytime computation.

    A budget is created once at the edge of a request (CLI flag, test
    harness, a [pchls serve] engine task) and threaded down into the
    long-running loops — the engine's clique-partition iterations, a
    sweep's grid points, a fuzz campaign's cases. The loops poll it
    cooperatively at iteration boundaries and wind down gracefully when it
    is exhausted, returning the best result found so far instead of
    hanging or raising. A budget is the only way to stop such a loop: the
    server folds every wall limit it enforces (the request's deadline, its
    own ceiling and the degraded-mode clamp) into one deadline.

    Wall-clock expiry is measured on {!Pchls_obs.Clock}, which is
    monotonic: NTP steps can never un-expire a deadline. All operations
    are thread-safe and may be shared by the worker domains of a
    {!Pchls_par.Pool}. The first observed expiry bumps the
    [resil.deadline_hits] counter (once per budget). *)

type t

(** Why a budget stopped admitting work. *)
type reason =
  | Wall_clock  (** the [deadline_ms] wall-clock deadline passed *)
  | Iterations  (** {!tick} was called [max_iters] times *)

(** [make ?deadline_ms ?max_iters ()] — a budget expiring [deadline_ms]
    milliseconds from now (measured on the monotonic clock) and/or after
    [max_iters] {!tick}s. Omitted limits are unlimited, and so is a
    deadline too far away for the clock to reach ([infinity] included);
    [make ()] never expires.

    @raise Invalid_argument when [deadline_ms] is negative or NaN, or
    [max_iters < 0]. *)
val make : ?deadline_ms:float -> ?max_iters:int -> unit -> t

(** [tick t] counts one unit of work against [max_iters]. *)
val tick : t -> unit

(** [ticks t] — how many times {!tick} has been called. *)
val ticks : t -> int

(** [check t] — [Some reason] when the budget is exhausted. A budget with
    [max_iters = Some n] is exhausted once [ticks t >= n], so
    [max_iters = 0] refuses work before the first iteration. *)
val check : t -> reason option

(** [exhausted t] is [check t <> None]. *)
val exhausted : t -> bool

(** [interrupted t] is {!check} ignoring the iteration cap: only the wall
    clock counts. Loops whose work does not map onto budget ticks
    (scheduler offset bumps, setup phases) poll this, so an
    iteration-capped budget still lets them run to completion. *)
val interrupted : t -> reason option

(** [remaining_ns t] — nanoseconds until the wall-clock deadline (clamped
    to 0); [None] when no deadline was set. *)
val remaining_ns : t -> int64 option

val reason_to_string : reason -> string
val pp_reason : Format.formatter -> reason -> unit
