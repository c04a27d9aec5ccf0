(** Characterisation of one functional-unit module type, as in the paper's
    Table 1: the operations it implements, its area, its execution latency in
    clock cycles, and the power it draws during each cycle it executes. *)

type t = {
  name : string;  (** unique within a library, e.g. ["ALU"] *)
  ops : Pchls_dfg.Op.kind list;  (** operations the module implements *)
  area : float;  (** area cost of one instance *)
  latency : int;  (** execution delay [d] in clock cycles, >= 1 *)
  power : float;  (** power drawn per executing clock cycle *)
}

(** [make ~name ~ops ~area ~latency ~power] validates the fields: [ops] must
    be non-empty and duplicate-free, [area] and [power] finite (no NaN or
    infinity), [area >= 0], [latency >= 1], [power >= 0]. *)
val make :
  name:string ->
  ops:Pchls_dfg.Op.kind list ->
  area:float ->
  latency:int ->
  power:float ->
  (t, string) result

val make_exn :
  name:string ->
  ops:Pchls_dfg.Op.kind list ->
  area:float ->
  latency:int ->
  power:float ->
  t

(** [implements m k] is [true] when [m] can execute operation kind [k]. *)
val implements : t -> Pchls_dfg.Op.kind -> bool

(** [energy m] is the energy of one execution: [power *. float latency]. *)
val energy : t -> float

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
