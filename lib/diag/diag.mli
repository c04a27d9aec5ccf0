(** Machine-readable diagnostics shared by every verification layer.

    A diagnostic carries a stable code (e.g. ["SCH003"]), a severity, the IR
    layer it concerns, the entity it points at, and a human-readable message.
    Codes never change meaning once published; {!registry} is the canonical
    table (also rendered in [docs/DIAGNOSTICS.md]).

    Diagnostics are plain data: the checkers in [Pchls_analysis] produce
    them, [Schedule.validate] produces them, and the [pchls check] CLI
    renders them as text or JSON. *)

type severity = Error | Warning | Info

(** The IR layer a diagnostic concerns, in pipeline order. *)
type layer = Dfg | Schedule | Binding | Netlist

(** What a diagnostic points at. [Design] marks whole-artifact findings. *)
type entity =
  | Node of int  (** a DFG operation *)
  | Edge of int * int  (** a data dependency *)
  | Kind of string  (** an operation kind, e.g. ["mult"] *)
  | Instance of int  (** a bound functional-unit instance *)
  | Register of int  (** an allocated register *)
  | Step of int  (** a control step / cycle *)
  | Design

type t = {
  code : string;
  severity : severity;
  layer : layer;
  entity : entity;
  message : string;
}

(** [errorf ~code ~layer ~entity fmt ...] builds an [Error] diagnostic with a
    printf-formatted message; {!warningf} and {!infof} likewise. *)
val errorf :
  code:string -> layer:layer -> entity:entity -> ('a, unit, string, t) format4 -> 'a

val warningf :
  code:string -> layer:layer -> entity:entity -> ('a, unit, string, t) format4 -> 'a

val infof :
  code:string -> layer:layer -> entity:entity -> ('a, unit, string, t) format4 -> 'a

val severity_to_string : severity -> string
val layer_to_string : layer -> string

(** [entity_to_string e] — e.g. ["node 3"], ["register 1"], ["design"]. *)
val entity_to_string : entity -> string

(** Total order: errors first, then by layer (pipeline order), code, entity
    and message — so renderings are deterministic regardless of checker
    order. *)
val compare : t -> t -> int

(** [sort ds] orders by {!compare} and drops exact duplicates. *)
val sort : t list -> t list

val count : severity -> t list -> int
val has_errors : t list -> bool

(** ["error[SCH003] schedule node 4: starts before predecessor 2 finishes"] *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** One JSON object with fields [code], [severity], [layer], [entity],
    [message]; {!list_to_json} is the array of them. *)
val to_json : t -> Pchls_obs.Json.t

val list_to_json : t list -> Pchls_obs.Json.t

(** The published code table: (code, severity, one-line description).
    Codes are unique; the table is what [docs/DIAGNOSTICS.md] documents. *)
val registry : (string * severity * string) list

(** [describe code] looks the code's one-line description up. *)
val describe : string -> string option
