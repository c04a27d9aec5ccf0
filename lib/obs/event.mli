(** The span/instant event datatype every {!Trace} recorder keeps,
    together with its Chrome [trace_event] JSON renderings.

    Recorders differ only in retention (an unbounded one keeps
    everything, a bounded one keeps the newest events in a ring), so any
    recorder produces the same Chrome documents and the same
    human-readable tree, and saved documents round-trip back into event
    lists ({!of_chrome}) for offline rendering ([pchls trace tree]). *)

type phase =
  | Complete of { dur_ns : int64 }  (** a span: [ts_ns .. ts_ns + dur_ns] *)
  | Instant  (** a point event *)

type t = {
  name : string;
  cat : string;  (** coarse subsystem: ["engine"], ["sched"], ["cache"]… *)
  phase : phase;
  ts_ns : int64;  (** relative to the recorder's creation *)
  tid : int;  (** recording domain id *)
  args : (string * string) list;
}

(** [end_ns ev] — where the event stops occupying its lane: [ts_ns] plus
    the duration for spans, [ts_ns] itself for instants. *)
val end_ns : t -> int64

(** [sort evs] — chronological by start time, longer spans first on ties,
    so a parent always precedes the children it encloses. Stable. *)
val sort : t list -> t list

(** [to_json ev] — one Chrome [trace_event] object ([ph:"X"] for spans,
    [ph:"i"] for instants; [ts]/[dur] in microseconds). *)
val to_json : t -> Json.t

(** [chrome_document evs] — the full [{"traceEvents": [...]}] document
    over [sort evs], printed by {!Json.to_string} on one line plus a
    final newline. *)
val chrome_document : t list -> string

(** [of_chrome text] parses a Chrome [trace_event] document (strict
    {!Json} parser) back into events — the inverse of {!chrome_document},
    and the one strict reader behind [pchls trace validate] and
    [pchls trace tree]. It checks the schema pchls emits: every event has
    a non-empty [name], a string [cat], non-negative numeric [ts], [pid]
    and [tid], string-valued [args] if any, and a [ph] of ["X"] (with a
    non-negative [dur]) or ["i"] (with a scope [s] of ["t"], ["p"] or
    ["g"]). The first violation is the [Error], naming the event's index.
    Microsecond timestamps convert back to the nanoseconds they were
    recorded as. *)
val of_chrome : string -> (t list, string) result

(** [pp_dur ns] — a human-scaled duration (["1.24 ms"], ["312 ns"]…). *)
val pp_dur : int64 -> string

(** [render_tree evs] — an indented per-domain span tree with durations
    and arguments, for terminal consumption ([pchls profile],
    [pchls trace tree]). Sorts internally. *)
val render_tree : t list -> string
