let emit ?(width = 16) (n : Netlist.t) =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let modname = Netlist.sanitize n.Netlist.design_name in
  let step_bits =
    let rec bits v acc = if v <= 1 then max acc 1 else bits (v / 2) (acc + 1) in
    bits (max 1 (n.Netlist.steps - 1)) 1
  in
  pr "// Generated by pchls: power-constrained high-level synthesis\n";
  pr "// design %s: %d control steps, %d functional units, %d registers\n\n"
    modname n.Netlist.steps
    (List.length n.Netlist.fus)
    n.Netlist.register_count;
  pr "module %s #(parameter WIDTH = %d) (\n" modname width;
  pr "  input  wire clk,\n  input  wire rst,\n  input  wire start,\n";
  pr "  output reg  done\n);\n\n";
  pr "  reg [%d:0] step;\n" (step_bits - 1);
  List.iter
    (fun (r, _) -> pr "  reg [WIDTH-1:0] r%d;\n" r)
    n.Netlist.register_writers;
  List.iter
    (fun (f : Netlist.fu) ->
      pr "  wire %s_go;\n  reg [WIDTH-1:0] %s_out;\n" f.Netlist.label
        f.Netlist.label)
    n.Netlist.fus;
  pr "\n  // control FSM\n";
  pr "  always @(posedge clk) begin\n";
  pr "    if (rst) begin step <= 0; done <= 1'b0; end\n";
  pr "    else if (start || step != 0) begin\n";
  pr "      if (step == %d) begin step <= 0; done <= 1'b1; end\n"
    (n.Netlist.steps - 1);
  pr "      else begin step <= step + 1; done <= 1'b0; end\n";
  pr "    end\n  end\n\n";
  pr "  // per-step start strobes\n";
  List.iter
    (fun (f : Netlist.fu) ->
      let steps =
        List.filter_map
          (fun (step, acts) ->
            if List.exists (fun (fu, _) -> fu = f.Netlist.fu_id) acts then
              Some (Printf.sprintf "step == %d" step)
            else None)
          n.Netlist.activations
      in
      match steps with
      | [] -> pr "  assign %s_go = 1'b0;\n" f.Netlist.label
      | steps ->
        pr "  assign %s_go = %s;\n" f.Netlist.label (String.concat " || " steps))
    n.Netlist.fus;
  pr "\n  // functional units (behavioural placeholders per module type)\n";
  List.iter
    (fun (f : Netlist.fu) ->
      let sources = List.assoc f.Netlist.fu_id n.Netlist.fu_sources in
      pr "  // %s latency=%d cycles, sources: %s\n" f.Netlist.label
        f.Netlist.spec.Pchls_fulib.Module_spec.latency
        (if sources = [] then "(none)"
         else String.concat ", " (List.map (Printf.sprintf "r%d") sources));
      pr "  always @(posedge clk) if (%s_go) %s_out <= {WIDTH{1'b0}};\n"
        f.Netlist.label f.Netlist.label)
    n.Netlist.fus;
  pr "\n  // register file write-back\n";
  List.iter
    (fun (r, writers) ->
      match writers with
      | [] -> ()
      | w :: _ ->
        let fu = List.find (fun f -> f.Netlist.fu_id = w) n.Netlist.fus in
        if List.length writers > 1 then
          pr "  // r%d is multiply written (select elided)\n" r;
        pr "  always @(posedge clk) r%d <= %s_out;\n" r fu.Netlist.label)
    n.Netlist.register_writers;
  pr "\nendmodule\n";
  Buffer.contents buf
