(** An always-on flight recorder: a fixed-capacity ring of recent
    span/instant events, dumpable after the fact.

    The {!Trace} sink retains every event, which is right for a bounded
    profiling run and wrong for a long-lived daemon: a slow or crashed
    request hours in leaves either an unbounded sink or no evidence at
    all. A flight recorder keeps only the last [capacity] events per
    domain shard — recording is allocation-bounded (one event record per
    span, stored into a preallocated ring slot) and dropping is silent
    and counted — so it can stay armed for the life of the process.

    At most one recorder is armed process-wide ({!arm}/{!disarm}); it
    observes the same {!Trace.span}/{!Trace.instant} call sites as a
    sink, independently of whether a sink is also installed. With
    neither armed, instrumented code records nothing and allocates no
    events (asserted by the test suite via {!total_recorded}).

    Dump triggers: {!to_chrome}/{!dump_to_file} on demand (the
    [GET /debug/flight] endpoint), {!install_sigusr1} (dump on
    [SIGUSR1]), and {!note_crash} (uncaught-exception paths in
    [Engine.run], [Pchls_par.Pool] and the serve handler). All dumps are
    valid Chrome [trace_event] documents ({!Event.of_chrome} reads
    them). See docs/OBSERVABILITY.md. *)

type t

val default_capacity : int

(** [create ?capacity ()] — a recorder retaining up to [capacity] events
    {e per domain shard} (default {!default_capacity}). Events from a
    domain land in one of a fixed set of shards keyed by domain id, so
    one chatty worker cannot evict another worker's history; total
    retention is bounded by [capacity × shards]. *)
val create : ?capacity:int -> unit -> t

(** [arm t] makes [t] the process-wide flight recorder; [disarm] turns
    flight recording back off. *)
val arm : t -> unit

val disarm : unit -> unit

(** [with_armed t f] arms, runs [f], disarms (also on raise). *)
val with_armed : t -> (unit -> 'a) -> 'a

(** [armed ()] — is any recorder armed? *)
val armed : unit -> bool

(** [current ()] — the armed recorder, if any. *)
val current : unit -> t option

(** [record ev] stores [ev] (with an {e absolute} {!Clock.now_ns}
    timestamp) into the armed recorder's ring, evicting the oldest event
    of its shard when full. No-op when nothing is armed. Called by
    {!Trace.span}/{!Trace.instant}; call it directly only for custom
    events. *)
val record : Event.t -> unit

(** [events t] — the retained events, timestamps relative to the
    recorder's creation, in {!Event.sort} order. *)
val events : t -> Event.t list

(** [recorded t] — events ever recorded into [t] (retained + dropped). *)
val recorded : t -> int

(** [dropped t] — events evicted from full rings. *)
val dropped : t -> int

(** [retained t] — events currently held. *)
val retained : t -> int

(** [capacity t] — the per-shard retention cap [t] was created with. *)
val capacity : t -> int

(** [total_recorded ()] — process-lifetime count of events recorded into
    any flight recorder. A synthesis run with nothing armed must leave
    it unchanged. *)
val total_recorded : unit -> int

(** [to_chrome t] — the retained events as a Chrome [trace_event]
    document ({!Event.chrome_document}). *)
val to_chrome : t -> string

(** [dump_to_file t path] writes {!to_chrome} to [path] atomically
    (temp file + rename). *)
val dump_to_file : t -> string -> unit

(** [note_crash ~origin exn] — the crash-path hook: records a
    ["flight.crash"] instant carrying [origin] and the exception, then
    dumps the armed recorder to the crash path (default
    ["pchls-flight-crash.json"], overridable with {!set_crash_path} or
    the [PCHLS_FLIGHT_CRASH] environment variable). Never raises; no-op
    when nothing is armed. *)
val note_crash : origin:string -> exn -> unit

val set_crash_path : string -> unit

(** [install_sigusr1 ?path ()] installs a [SIGUSR1] handler that dumps
    the armed recorder to [path] (default
    ["pchls-flight-<pid>.json"]); returns the effective path. On
    platforms without [SIGUSR1] it does nothing beyond returning the
    path. *)
val install_sigusr1 : ?path:string -> unit -> string
