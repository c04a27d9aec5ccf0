(** Low-overhead span/event tracing for the synthesis pipeline.

    A {!sink} collects events; at most one sink is installed process-wide
    at a time. Independently, a {!Flight} recorder may be armed: {!span}
    and {!instant} record into both observers. With neither present the
    tracer is off: {!span} runs its thunk directly and records nothing —
    the zero-observer path allocates no trace events (asserted by the
    test suite via {!total_recorded} and {!Flight.total_recorded}). Hot
    call sites that would build argument lists should guard them with
    {!observed}.

    Timestamps come from {!Clock.now_ns} (monotonic, strictly increasing
    across domains); events carry the recording domain's id, so traces
    from a parallel {!Pchls_par.Pool} sweep interleave correctly. Sinks
    are mutex-protected and may be written from any domain.

    Export formats: Chrome [trace_event] JSON ({!to_chrome} — open it in
    Perfetto or [chrome://tracing]) and a human-readable nested tree
    ({!render_tree}). See docs/OBSERVABILITY.md. *)

(** The event types live in {!Event} (shared with {!Flight}) and are
    re-exported here, so [Trace.Complete] and [ev.Trace.name] patterns
    keep working. *)

type phase = Event.phase =
  | Complete of { dur_ns : int64 }  (** a span: [ts_ns .. ts_ns + dur_ns] *)
  | Instant  (** a point event *)

type event = Event.t = {
  name : string;
  cat : string;  (** coarse subsystem: ["engine"], ["sched"], ["cache"]… *)
  phase : phase;
  ts_ns : int64;  (** relative to the sink's creation *)
  tid : int;  (** recording domain id *)
  args : (string * string) list;
}

type sink

val make : unit -> sink

(** [install sink] makes [sink] the process-wide collector; [uninstall]
    turns tracing back off. *)
val install : sink -> unit

val uninstall : unit -> unit

(** [with_sink sink f] installs, runs [f], uninstalls (also on raise). *)
val with_sink : sink -> (unit -> 'a) -> 'a

(** [enabled ()] — is a sink installed? (Does not cover the flight
    recorder; prefer {!observed} for guarding instrumentation.) *)
val enabled : unit -> bool

(** [observed ()] — is any observer (sink or armed {!Flight} recorder)
    present? Guard eager argument-list construction with this in hot
    loops. *)
val observed : unit -> bool

(** [span ?cat ?args name f] times [f] and records a [Complete] event on
    the installed sink and/or the armed flight recorder (neither → just
    runs [f]). The event is recorded even when [f] raises, so aborted
    phases still show up in the trace. *)
val span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** [instant ?cat ?args name] records a point event (no observer →
    no-op). *)
val instant : ?cat:string -> ?args:(string * string) list -> string -> unit

(** [events sink] — chronological (start time, then longer spans first, so
    a parent always precedes its children). *)
val events : sink -> event list

(** [count sink] is the number of recorded events. *)
val count : sink -> int

(** [total_recorded ()] — process-lifetime count of events recorded on any
    sink. A synthesis run with no sink installed must leave it unchanged. *)
val total_recorded : unit -> int

(** [to_chrome sink] renders the Chrome [trace_event] JSON document:
    [{"traceEvents": [...]}] with [ts]/[dur] in microseconds, complete
    events as [ph:"X"] and instants as [ph:"i"]. *)
val to_chrome : sink -> string

(** [render_tree sink] — an indented per-domain span tree with durations
    and arguments, for terminal consumption ([pchls profile]). *)
val render_tree : sink -> string
