(** A per-endpoint circuit breaker: closed / open / half-open.

    A crash-looping or persistently failing backend must not keep being
    fed fresh work — every request it receives costs a pool slot, a
    handler thread and a client timeout, and buys nothing. A breaker
    watches the recent outcome window and, once the failure rate crosses
    the threshold, {e opens}: callers fast-fail without touching the
    backend at all. After a cooldown the breaker goes {e half-open} and
    admits exactly one probe; a successful probe closes the breaker, a
    failed one re-opens it for another cooldown.

    Cooldowns carry deterministic seeded jitter ({!Fault.draw} over
    [(name, seed, trip count)]), so a fleet of breakers tripped by one
    incident does not re-probe in lockstep — and a test campaign replays
    the exact same cooldowns run after run.

    The caller contract around each protected call:
    {[
      if Breaker.acquire b then (
        match work () with
        | v -> Breaker.success b; v
        | exception e -> Breaker.failure b; raise e)
      else fast_fail ()   (* e.g. HTTP 503 + Retry-After (retry_after_ms) *)
    ]}

    All operations are thread-safe. Trips and fast-fails are counted in
    the [breaker.trips] / [breaker.fast_fails] metrics; each breaker
    also mirrors its state into the [breaker.<name>.state] gauge
    (0 closed, 1 half-open, 2 open). *)

type t

type state = Closed | Half_open | Open

(** [create ?now ?window ?threshold ?min_samples ?cooldown_ms ?seed
    ?on_transition ~name ()]:

    - [window] (default 20): number of recent outcomes considered;
    - [threshold] (default 0.5): failure fraction of the window at or
      above which a closed breaker trips;
    - [min_samples] (default 5): outcomes required before the rate is
      meaningful — a breaker never trips on its first failure;
    - [cooldown_ms] (default 1000): base open-state dwell before a probe
      is admitted; each trip jitters it by up to +25% (seeded, see
      above);
    - [on_transition old new] is called (outside the breaker's lock)
      on every state change — the serve layer hooks logging and
      flight-recorder instants here;
    - [now] (default {!Pchls_obs.Clock.now_ns}) is swappable for tests.

    @raise Invalid_argument when [window < 1], [threshold] is outside
    [(0, 1]], [min_samples < 1] or [cooldown_ms <= 0]. *)
val create :
  ?now:(unit -> int64) ->
  ?window:int ->
  ?threshold:float ->
  ?min_samples:int ->
  ?cooldown_ms:float ->
  ?seed:int ->
  ?on_transition:(state -> state -> unit) ->
  name:string ->
  unit ->
  t

val name : t -> string
val state : t -> state

(** [acquire t] — may this call proceed? [Closed]: always. [Open]:
    [false] until the cooldown elapses, then the breaker turns
    half-open and this caller becomes the probe. [Half_open]: [false]
    while the probe is in flight. Every [false] bumps
    [breaker.fast_fails]. *)
val acquire : t -> bool

(** [success t] / [failure t] — report the outcome of an acquired call.
    Outcomes for which {!acquire} returned [false] must not be
    reported. *)
val success : t -> unit

val failure : t -> unit

(** [retry_after_ms t] — milliseconds until the breaker would next admit
    a probe: the remaining cooldown when open, [0] otherwise. The serve
    layer rounds this up into [Retry-After]. *)
val retry_after_ms : t -> float

(** [trips t] — times this breaker has opened. *)
val trips : t -> int

val state_to_string : state -> string
