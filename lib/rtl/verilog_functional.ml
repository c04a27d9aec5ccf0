module Graph = Pchls_dfg.Graph
module Op = Pchls_dfg.Op
module Design = Pchls_core.Design
module Regalloc = Pchls_core.Regalloc
module Module_spec = Pchls_fulib.Module_spec

let operand_list ~operands g node =
  match operands node with
  | Some order -> order
  | None -> Graph.preds g node

(* Everything the emitters need, precomputed once. *)
type plan = {
  g : Graph.t;
  module_name : string;
  steps : int;
  reg_of : int -> int;
  register_count : int;
  input_ports : (int * string) list; (* input node, port name *)
  output_ports : (int * string) list;
  fu_label : int -> string; (* instance id -> identifier *)
  operands : int -> int list option;
  coefficients : int -> int;
}

let make_plan ?(coefficients = fun _ -> 3) ?(operands = fun _ -> None) d =
  let g = Design.graph d in
  let allocation = Design.register_allocation d in
  let ports kind prefix =
    List.map
      (fun id -> (id, prefix ^ Netlist.sanitize (Graph.node_name g id)))
      (Graph.nodes_of_kind g kind)
  in
  let labels = Hashtbl.create 16 in
  List.iter
    (fun (i : Design.instance) ->
      Hashtbl.replace labels i.Design.id
        (Printf.sprintf "fu%d_%s" i.Design.id
           (Netlist.sanitize i.Design.spec.Module_spec.name)))
    (Design.instances d);
  {
    g;
    module_name = Netlist.sanitize (Graph.name g);
    steps = Design.time_limit d;
    reg_of = Regalloc.register_of allocation;
    register_count = Array.length allocation;
    input_ports = ports Op.Input "in_";
    output_ports = ports Op.Output "out_";
    fu_label = Hashtbl.find labels;
    operands;
    coefficients;
  }

(* The right-hand side computing operation [op] on its instance.

   Timing: results are committed in the step entering the landing boundary
   (start + latency - 1, nonblocking). A single-cycle operation commits in
   its start step, so its operands must be read straight from the registers
   (the latches would still hold stale values); a multi-cycle operation
   commits later, so it reads the operands latched at its start step —
   which also protects it from the source registers being reused
   mid-execution. Both conventions see exactly the values
   {!Pchls_core.Simulate} defines (writes land before reads of the same
   cycle; nonblocking assignment gives the same order in Verilog). *)
let body plan (inst : Design.instance) op =
  let multi = inst.Design.spec.Module_spec.latency > 1 in
  let label = plan.fu_label inst.Design.id in
  let ops = operand_list ~operands:plan.operands plan.g op in
  let operand idx =
    if multi then label ^ if idx = 0 then "_a" else "_b"
    else
      match List.nth_opt ops idx with
      | Some p -> Printf.sprintf "r%d" (plan.reg_of p)
      | None -> "{WIDTH{1'b0}}"
  in
  let a = operand 0 and b = operand 1 in
  match (Graph.kind plan.g op, ops) with
  | Op.Add, [ _; _ ] -> Printf.sprintf "%s + %s" a b
  | Op.Sub, [ _; _ ] -> Printf.sprintf "%s - %s" a b
  | Op.Mult, [ _; _ ] -> Printf.sprintf "%s * %s" a b
  | Op.Mult, [ _ ] -> Printf.sprintf "%d * %s" (plan.coefficients op) a
  | Op.Comp, [ _; _ ] -> Printf.sprintf "{{(WIDTH-1){1'b0}}, %s > %s}" a b
  | Op.Add, [ _ ] -> Printf.sprintf "%s + %s" a a (* x + x collapsed edge *)
  | Op.Sub, [ _ ] -> Printf.sprintf "%s - %s" a a
  | Op.Comp, [ _ ] -> "{WIDTH{1'b0}}"
  | Op.Input, _ ->
    (match List.assoc_opt op plan.input_ports with
    | Some port -> port
    | None -> "{WIDTH{1'b0}}")
  | Op.Output, _ -> a
  | (Op.Add | Op.Sub | Op.Mult | Op.Comp), _ -> "{WIDTH{1'b0}}"

let emit ?(width = 32) ?coefficients ?operands d =
  let plan = make_plan ?coefficients ?operands d in
  let buf = Buffer.create 8192 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "// Functionally complete datapath generated by pchls\n";
  pr "// design %s: %d control steps, %d FUs, %d registers\n\n" plan.module_name
    plan.steps
    (List.length (Design.instances d))
    plan.register_count;
  pr "module %s #(parameter WIDTH = %d) (\n" plan.module_name width;
  pr "  input  wire clk,\n  input  wire rst,\n  input  wire start,\n";
  List.iter
    (fun (_, port) -> pr "  input  wire signed [WIDTH-1:0] %s,\n" port)
    plan.input_ports;
  List.iter
    (fun (_, port) -> pr "  output reg  signed [WIDTH-1:0] %s,\n" port)
    plan.output_ports;
  pr "  output reg  done\n);\n\n";
  pr "  reg running;\n  reg [15:0] step;\n";
  for r = 0 to plan.register_count - 1 do
    pr "  reg signed [WIDTH-1:0] r%d;\n" r
  done;
  List.iter
    (fun (i : Design.instance) ->
      let label = plan.fu_label i.Design.id in
      pr "  reg signed [WIDTH-1:0] %s_a, %s_b;\n" label label)
    (Design.instances d);
  pr "\n  always @(posedge clk) begin\n";
  pr "    if (rst) begin\n      running <= 1'b0;\n      step <= 0;\n";
  pr "      done <= 1'b0;\n    end else begin\n";
  pr "      if (start && !running) begin\n";
  pr "        running <= 1'b1;\n        step <= 0;\n        done <= 1'b0;\n";
  pr "      end else if (running) begin\n";
  pr "        step <= step + 1;\n";
  pr "        if (step == %d) begin\n          running <= 1'b0;\n" (plan.steps - 1);
  pr "          done <= 1'b1;\n        end\n      end\n";
  pr "      if (running) begin\n        case (step)\n";
  (* Per step: latch operands of starting ops, then (independently) commit
     results of ops finishing at the *next* boundary. Because the schedule
     is static and operands are latched at start, each FU's combinational
     body is stable when its result lands. *)
  for t = 0 to plan.steps - 1 do
    let starting =
      List.concat_map
        (fun (i : Design.instance) ->
          List.filter_map
            (fun (op, t') -> if t' = t then Some (i, op) else None)
            i.Design.ops)
        (Design.instances d)
    in
    let landing =
      List.concat_map
        (fun (i : Design.instance) ->
          List.filter_map
            (fun (op, t') ->
              if t' + i.Design.spec.Module_spec.latency - 1 = t then
                Some (i, op)
              else None)
            i.Design.ops)
        (Design.instances d)
    in
    if starting <> [] || landing <> [] then begin
      pr "          %d: begin\n" t;
      List.iter
        (fun ((i : Design.instance), op) ->
          if i.Design.spec.Module_spec.latency > 1 then begin
            let label = plan.fu_label i.Design.id in
            match operand_list ~operands:plan.operands plan.g op with
            | [] -> ()
            | [ a ] -> pr "            %s_a <= r%d;\n" label (plan.reg_of a)
            | [ a; b ] ->
              pr "            %s_a <= r%d;\n" label (plan.reg_of a);
              pr "            %s_b <= r%d;\n" label (plan.reg_of b)
            | _ :: _ :: _ ->
              pr "            // op %d has arity > 2 (unsupported)\n" op
          end)
        starting;
      List.iter
        (fun ((i : Design.instance), op) ->
          match Graph.succs plan.g op with
          | [] ->
            (match List.assoc_opt op plan.output_ports with
            | Some port ->
              pr "            %s <= %s;\n" port (body plan i op)
            | None -> ())
          | _ :: _ ->
            pr "            r%d <= %s;\n" (plan.reg_of op) (body plan i op))
        landing;
      pr "          end\n"
    end
  done;
  pr "        endcase\n      end\n    end\n  end\nendmodule\n";
  Buffer.contents buf

let testbench ?(width = 32) ?coefficients ?operands d ~inputs =
  let plan = make_plan ?coefficients ?operands d in
  let float_inputs = List.map (fun (n, v) -> (n, float_of_int v)) inputs in
  let coefficient =
    match coefficients with
    | Some f -> fun id -> float_of_int (f id)
    | None -> fun _ -> 3.
  in
  let verdict =
    match
      Pchls_core.Simulate.run ~coefficient ?operands d ~inputs:float_inputs
    with
    | Ok v -> v
    | Error f ->
      invalid_arg
        (Format.asprintf "Verilog_functional.testbench: %a"
           Pchls_core.Simulate.pp_failure f)
  in
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "// Self-checking functional testbench for %s\n" plan.module_name;
  pr "`timescale 1ns/1ps\n\nmodule %s_tb;\n" plan.module_name;
  pr "  reg clk = 1'b0;\n  reg rst = 1'b1;\n  reg start = 1'b0;\n";
  List.iter
    (fun (_, port) -> pr "  reg signed [%d:0] %s;\n" (width - 1) port)
    plan.input_ports;
  List.iter
    (fun (_, port) -> pr "  wire signed [%d:0] %s;\n" (width - 1) port)
    plan.output_ports;
  pr "  wire done;\n\n";
  pr "  %s #(.WIDTH(%d)) dut (\n    .clk(clk), .rst(rst), .start(start),\n"
    plan.module_name width;
  List.iter
    (fun (_, port) -> pr "    .%s(%s),\n" port port)
    (plan.input_ports @ plan.output_ports);
  pr "    .done(done)\n  );\n\n";
  pr "  always #5 clk = ~clk;\n\n";
  pr "  initial begin\n";
  List.iter
    (fun (node, port) ->
      let name = Graph.node_name plan.g node in
      match List.assoc_opt name inputs with
      | Some v -> pr "    %s = %d;\n" port v
      | None -> pr "    %s = 0;\n" port)
    plan.input_ports;
  pr "    repeat (2) @(posedge clk);\n    rst = 1'b0;\n";
  pr "    @(posedge clk) start = 1'b1;\n    @(posedge clk) start = 1'b0;\n";
  pr "    wait (done);\n    @(posedge clk);\n";
  List.iter
    (fun (name, value) ->
      let node =
        List.find
          (fun n ->
            n.Graph.name = name && Op.equal n.Graph.kind Op.Output)
          (Graph.nodes plan.g)
      in
      match List.assoc_opt node.Graph.id plan.output_ports with
      | Some port ->
        pr "    if (%s === %d) $display(\"PASS %s = %%0d\", %s);\n" port
          (int_of_float value) port port;
        pr "    else begin $display(\"FAIL %s: got %%0d, want %d\", %s); $fatal; end\n"
          port (int_of_float value) port
      | None -> ())
    verdict.Pchls_core.Simulate.outputs;
  pr "    $display(\"ALL OUTPUTS PASS\");\n    $finish;\n  end\nendmodule\n";
  Buffer.contents buf
