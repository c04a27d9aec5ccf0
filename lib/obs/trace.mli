(** Low-overhead span/event tracing for the synthesis pipeline, and the
    one recorder type that keeps what it emits.

    A recorder ({!t}) either keeps every event ({!make} [()], the
    [--trace] sink) or, with [~capacity], keeps only the newest events in
    a bounded ring (the always-on flight recorder). Any number of
    recorders may be installed at once; {!span} and {!instant} record
    into each of them. With none installed the tracer is off: {!span}
    runs its thunk directly and records nothing — the zero-observer path
    costs one atomic load per span and allocates no trace events
    (asserted by the test suite via {!total_recorded}). Hot call sites
    that would build argument lists should guard them with {!observed}.

    Timestamps come from {!Clock.now_ns} (monotonic, strictly increasing
    across domains); events carry the recording domain's id, so traces
    from a parallel {!Pchls_par.Pool} sweep interleave correctly.
    Recorders are mutex-protected per domain shard and may be written
    from any domain.

    Export formats: Chrome [trace_event] JSON ({!to_chrome} — open it in
    Perfetto or [chrome://tracing]) and a human-readable nested tree
    ({!render_tree}). Bounded recorders are also dumped on crashes
    ({!note_crash}) and on [SIGUSR1] ({!install_sigusr1}). See
    docs/OBSERVABILITY.md. *)

(** The event types live in {!Event} and are re-exported here, so
    [Trace.Complete] and [ev.Trace.name] patterns keep working. *)

type phase = Event.phase =
  | Complete of { dur_ns : int64 }  (** a span: [ts_ns .. ts_ns + dur_ns] *)
  | Instant  (** a point event *)

type event = Event.t = {
  name : string;
  cat : string;  (** coarse subsystem: ["engine"], ["sched"], ["cache"]… *)
  phase : phase;
  ts_ns : int64;  (** relative to the recorder's creation *)
  tid : int;  (** recording domain id *)
  args : (string * string) list;
}

type t

(** The per-shard ring size the flight recorder uses unless told
    otherwise ([pchls serve --flight-capacity], [--flight]). *)
val default_capacity : int

(** [make ?capacity ()] — a recorder. Without [capacity] it keeps every
    event. With [~capacity:n] it keeps the newest [n] events {e per
    domain shard} (at least 1): events from a domain land in one of a
    fixed set of shards keyed by domain id, so one chatty worker cannot
    evict another worker's history, and evicted events are counted in
    {!dropped}. *)
val make : ?capacity:int -> unit -> t

(** [install r] adds [r] to the installed recorders; [uninstall r]
    removes it and leaves every other recorder installed. *)
val install : t -> unit

val uninstall : t -> unit

(** [with_sink r f] installs [r], runs [f], uninstalls [r] (also on
    raise). *)
val with_sink : t -> (unit -> 'a) -> 'a

(** [observed ()] — is any recorder installed? Guard eager argument-list
    construction with this in hot loops. *)
val observed : unit -> bool

(** [span ?cat ?args name f] times [f] and records a [Complete] event on
    every installed recorder (none → just runs [f]). The event is
    recorded even when [f] raises, so aborted phases still show up in
    the trace. *)
val span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** [instant ?cat ?args name] records a point event on every installed
    recorder (none → no-op). *)
val instant : ?cat:string -> ?args:(string * string) list -> string -> unit

(** [events r] — the retained events, timestamps relative to [r]'s
    creation (clamped at 0), in {!Event.sort} order: chronological, a
    parent always before its children. *)
val events : t -> event list

(** [count r] — events ever recorded into [r] ({!retained} + {!dropped}). *)
val count : t -> int

(** [retained r] — events [r] holds now. *)
val retained : t -> int

(** [dropped r] — events a bounded [r] evicted from full rings (0 for an
    unbounded one). *)
val dropped : t -> int

(** [total_recorded ()] — process-lifetime count of events recorded into
    any recorder. A synthesis run with no recorder installed must leave
    it unchanged. *)
val total_recorded : unit -> int

(** [to_chrome r] renders the Chrome [trace_event] JSON document
    ({!Event.chrome_document} of {!events}). *)
val to_chrome : t -> string

(** [render_tree r] — an indented per-domain span tree with durations
    and arguments, for terminal consumption ([pchls profile]). *)
val render_tree : t -> string

(** [dump_to_file r path] writes {!to_chrome} to [path] atomically
    (temp file + rename). *)
val dump_to_file : t -> string -> unit

(** [note_crash ~origin exn] — the crash-path hook: records a
    ["flight.crash"] instant carrying [origin] and the exception on every
    installed recorder, then dumps the first installed bounded recorder
    to the crash path (default ["pchls-flight-crash.json"], overridable
    with {!set_crash_path} or the [PCHLS_FLIGHT_CRASH] environment
    variable). Never raises; no-op when nothing is installed. *)
val note_crash : origin:string -> exn -> unit

val set_crash_path : string -> unit

(** [install_sigusr1 ?path ()] installs a [SIGUSR1] handler that dumps
    the first installed bounded recorder to [path] (default
    ["pchls-flight-<pid>.json"]); returns the effective path. On
    platforms without [SIGUSR1] it does nothing beyond returning the
    path. *)
val install_sigusr1 : ?path:string -> unit -> string
