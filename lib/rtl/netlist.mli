(** Structural datapath netlist derived from a synthesized design:
    functional-unit instances, shared registers, their interconnection, and
    the control-step activation table driven by the FSM controller. *)

type fu = {
  fu_id : int;
  label : string;  (** e.g. ["fu2_ALU"] *)
  spec : Pchls_fulib.Module_spec.t;
}

type t = {
  design_name : string;
  steps : int;  (** number of control steps (the time constraint) *)
  fus : fu list;
  register_count : int;
  fu_sources : (int * int list) list;
      (** per FU: the registers feeding its operand ports *)
  register_writers : (int * int list) list;
      (** per register: the FUs writing it *)
  activations : (int * (int * int) list) list;
      (** per control step: the (fu, operation) pairs that start *)
}

val of_design : Pchls_core.Design.t -> t

(** [sanitize name] maps every character outside [[A-Za-z0-9_]] to ['_']:
    the identifier rule every RTL emitter (Verilog, VHDL, testbench, VCD)
    applies to design, module and signal names. *)
val sanitize : string -> string

(** [mux_count n] is the number of multiplexers the netlist implies: one per
    FU fed by more registers than it has ports, one per multiply-written
    register. *)
val mux_count : t -> int

val pp : Format.formatter -> t -> unit
