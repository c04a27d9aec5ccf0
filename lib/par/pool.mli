(** A fixed-size pool of OCaml 5 domains with a mutex/condition work queue.

    Engine synthesis is pure, so design-space grid points parallelize
    embarrassingly: {!map} distributes independent evaluations over the
    pool's worker domains while preserving the input order of the results,
    making a parallel sweep bit-identical to a sequential one.

    {!map}, {!run} and {!try_map} share one dispatch path: one task per
    element, the caller blocked until all have finished, outcomes returned
    in input order. Every dispatched task counts once in [pool.tasks] and
    once in each of the [pool.task_wait_ns] (submit to start) and
    [pool.task_run_ns] (start to finish) histograms; work run inline on the
    calling domain counts in none of them.

    A pool may be reused for any number of {!map} calls and must
    eventually be released with {!shutdown} (or use {!with_pool}).
    Submitting work from inside a pool task is not supported — a task that
    calls {!map} on its own pool may deadlock. *)

type t

(** [create ~jobs ()] starts a pool of [jobs] worker domains (default:
    [Domain.recommended_domain_count ()]). With [jobs = 1] no domain is
    spawned and all work runs inline on the calling domain.

    @raise Invalid_argument when [jobs < 1]. *)
val create : ?jobs:int -> unit -> t

(** [jobs pool] is the worker count the pool was created with. *)
val jobs : t -> int

(** [map pool f xs] applies [f] to every element of [xs] on the pool and
    returns the results in the order of [xs], regardless of completion
    order. If one or more applications raise, the exception raised by the
    {e earliest} input (smallest index) is re-raised at the join point with
    its backtrace, after all tasks have finished — so the error surfaced is
    deterministic.

    @raise Invalid_argument when the pool has been shut down. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** The terminal record of one input that kept crashing: the exception of
    the last attempt, its backtrace, and how many attempts were made. *)
type failure = {
  attempts : int;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

(** [try_map ?retries pool f xs] is {!map} with per-item crash isolation:
    an application that raises is retried up to [retries] times (default
    1), and if every attempt fails the item yields [Error failure] while
    every other item still runs to completion — including on the inline
    ([jobs = 1]) path, where {!map} would stop at the first exception.
    Results preserve input order.

    Each (item, attempt) consults the ["pool.worker"] fault point
    ({!Pchls_resil.Fault}) keyed by input index and salted by attempt
    number, so seeded chaos campaigns kill deterministic subsets of tasks.
    Retries and terminal failures are counted in the [pool.task_retries] /
    [pool.task_failures] metrics.

    @raise Invalid_argument when [retries < 0] or the pool has been shut
    down. *)
val try_map :
  ?retries:int -> t -> ('a -> 'b) -> 'a list -> ('b, failure) result list

(** [run pool f] executes [f ()] on a pool worker domain, blocks the
    calling thread until it finishes, and returns its result — re-raising
    any exception with its backtrace. Unlike a one-element {!map} (which
    runs inline as an optimisation), the task really is dispatched, so
    callers that overlap many independent single computations — the
    [pchls serve] request handlers — get true multi-domain parallelism
    while their own (sys-)threads only block. With [jobs = 1] it runs
    inline on the calling domain. Calling {!run} from inside a pool task
    may deadlock, like any submission from a task.

    @raise Invalid_argument when the pool has been shut down. *)
val run : t -> (unit -> 'a) -> 'a

(** [shutdown pool] drains the queue, stops and joins every worker domain.
    Idempotent: further calls return immediately. Subsequent {!map} calls
    raise [Invalid_argument]. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down when
    [f] returns or raises. *)
val with_pool : ?jobs:int -> (t -> 'a) -> 'a
