(** [pchls serve] — synthesis as a long-running service.

    A dependency-free HTTP/1.1 daemon over [Unix] sockets: one acceptor
    thread multiplexes the listening socket, a fixed pool of handler
    (sys-)threads parses requests and writes responses, and all engine
    work is dispatched onto a shared {!Pchls_par.Pool} of worker domains
    ({!Pchls_par.Pool.run}), so many concurrent requests synthesize in
    parallel while handler threads only block.

    Endpoints ([POST] unless noted):
    - [/synth] — one (T, P<) point; body as below.
    - [/sweep] — a times × powers constraint grid.
    - [/pareto] — [/sweep] plus the non-dominated front.
    - [/check] — synthesize then run every {!Pchls_analysis} checker.
    - [/preflight] — static bounds and infeasibility certificates only.
    - [GET /metrics] — the {!Pchls_obs.Metrics} registry as JSON, or as
      Prometheus text exposition under [Accept: text/plain] (or
      [?format=prometheus]).
    - [GET /trace] — Chrome trace_event JSON of the run so far (404
      unless the server was started with [trace = true]).
    - [GET /debug/flight] — the always-on flight recorder (a bounded
      {!Pchls_obs.Trace} recorder)'s retained ring as Chrome trace_event
      JSON (404 when started with [flight_capacity = 0]).
    - [GET /healthz] — liveness: status, version, uptime, in-flight
      count, pool size, flight-recorder and cache stats.

    Every response carries an [x-request-id] header — the client's
    [X-Request-Id] when it sent a well-formed one, else generated — and
    the same id appears in that request's trace spans
    ([serve.request]) and, when [access_log] is set, in its JSON-lines
    access-log record ({!Pchls_obs.Log}; requests at or above [slow_ms]
    log as [slow-request] at Warn).

    Request bodies are JSON objects: exactly one graph source
    ([{"benchmark": "hal"}], [{"dfg": "<Text_format>"}] or
    [{"beh": "<behavioural program>"}]) plus [time] (or [times] for
    grids), [power] / [powers] / [p_from]/[p_to]/[p_step], and optional
    [policy], [preflight], [deadline_ms], [max_iters].

    Engine exit semantics map onto HTTP statuses exactly as the CLI's
    exit codes 0/1/2/3 do: 200 a complete result, 422 provably/reportedly
    infeasible, 500 an internal error, and 206 a {e partial} (anytime)
    result whose request budget expired — the body then carries a
    ["partial"] field with the budget reason. Malformed requests get 400,
    oversized bodies 413, unknown routes 404 and wrong methods 405.

    One process-wide two-tier {!Pchls_cache.Store} (optionally bounded by
    [cache_mem_entries], see [--cache-mem-entries]) is shared across
    requests, and identical in-flight requests are coalesced by
    WL-fingerprint ({!Coalesce}): a thundering herd on one DFG runs
    synthesis once.

    {b Overload protection.} Accepted connections pass through a bounded
    admission queue ({!Pchls_resil.Admission}): when [max_queue] entries
    are already waiting, the connection is {e shed} — answered 503 with a
    [Retry-After] header and a constant JSON body, within milliseconds —
    and a connection that waited longer than [queue_age_ms] before a
    handler picked it up is answered the same way (CoDel-style head
    drop). As the queue fills past [shed_threshold] (a fraction of
    [max_queue]), [/synth] and [/sweep]/[/pareto] {e degrade}: first the
    request deadline is clamped to [degrade_deadline_ms] so the anytime
    engine answers quickly (usually 206), and past the midpoint between
    the threshold and saturation they answer from
    {!Pchls_preflight.Preflight} bounds alone without touching the worker
    pool. Degraded responses carry an [x-pchls-degraded] header
    (["clamped"] or ["preflight"]); a request body may pin a mode with
    ["degraded": "none" | "clamped" | "preflight"]. Each engine-backed
    endpoint is guarded by a circuit breaker ({!Pchls_resil.Breaker},
    [breaker = true]): a burst of 5xx outcomes opens it and callers
    fast-fail 503 + [Retry-After] until a cooldown probe succeeds.
    [max_deadline_ms] is the server's one wall limit: every engine task
    runs under one budget whose deadline, counted from before pool
    dispatch, is the tightest of the request's own [deadline_ms], that
    ceiling and the degraded clamp. A task that reaches it winds down at
    its next budget poll and answers 206 with its budget verdict (and
    the anytime design when one exists), like any expired budget; such
    an answer is never a breaker failure, and coalesced followers share
    it as it is. All of it is visible in [/healthz] ([queue],
    [pressure], [degraded], [shed], [breakers]), [/metrics]
    ([serve.shed], [serve.degraded], [serve.partial], [admission.*],
    [breaker.*]) and the access log ([queue_ms] on served requests,
    [shed] records on rejections).

    Fault points ["serve.accept"] (a connection dropped at accept; the
    daemon keeps accepting), ["serve.handler"] (a handler crash, answered
    with 500), ["serve.shed"] (a forced admission refusal — the 503 shed
    path without a full queue) and ["serve.hang"] (an engine task that
    spins until its deadline passes, exercising the wall limit) wire the
    server into the {!Pchls_resil.Fault} chaos machinery. *)

(** The server's version string, surfaced in [/healthz]. *)
val version : string

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  threads : int;  (** handler threads — concurrent connections served *)
  jobs : int;  (** worker domains for engine work; 1 = inline *)
  library : Pchls_fulib.Library.t;
  cache : bool;  (** master switch for the shared result cache *)
  cache_dir : string option;  (** adds the on-disk tier *)
  cache_mem_entries : int option;  (** LRU cap on the memory tier *)
  max_deadline_ms : float option;
      (** server-side ceiling on (and default for) per-request budgets:
          the one wall limit on every engine task *)
  max_body_bytes : int;  (** request body cap, → 413 *)
  trace : bool;
      (** install an unbounded {!Pchls_obs.Trace} recorder serving
          [GET /trace] *)
  flight_capacity : int;
      (** per-shard ring size of the always-on flight recorder, a bounded
          {!Pchls_obs.Trace} recorder; [0] turns it off (and 404s
          [GET /debug/flight]) *)
  access_log : string option;
      (** JSON-lines access log path; ["-"] = stdout; [None] = off *)
  slow_ms : float;
      (** requests at or above this log as [slow-request] at Warn *)
  max_queue : int;
      (** admission-queue depth; further connections are shed with 503 *)
  queue_age_ms : float;
      (** max queueing delay before a connection is answered 503 instead
          of served (and the [Retry-After] hint on shed responses) *)
  shed_threshold : float;
      (** queue-fullness fraction past which requests degrade; a value
          above 1 disables degradation *)
  degrade_deadline_ms : float;
      (** deadline clamp applied to degraded (clamped-mode) requests *)
  breaker : bool;  (** per-endpoint circuit breakers on 5xx bursts *)
  breaker_cooldown_ms : float;
      (** open-state dwell before a breaker admits a probe *)
}

val default_config : config

type t

(** [start config] binds, listens and spawns the acceptor and handler
    threads; returns once the server is accepting. Its trace and flight
    recorders are installed next to any the caller installed.
    @raise Unix.Unix_error when the address cannot be bound.
    @raise Invalid_argument when [threads < 1]. *)
val start : config -> t

(** [port t] — the bound port (useful with [config.port = 0]). *)
val port : t -> int

(** [store t] — the shared result cache, when caching is on. *)
val store : t -> Pchls_cache.Store.t option

(** [inflight t] — requests currently being handled. *)
val inflight : t -> int

(** [stop t] — graceful shutdown: stop accepting, serve every accepted
    connection to completion, then release the worker pool and uninstall
    the server's own recorders (no one else's). Idempotent. The cache's
    disk tier needs no flushing (entries are written atomically as they
    are produced). *)
val stop : t -> unit

(** [run config] is the CLI entry point: {!start}, then block until
    SIGINT/SIGTERM, then {!stop}, print the cache's final stats and
    return exit code 0. A second signal during the drain force-exits the
    process with code 1. *)
val run : config -> int
