let verilog (n : Netlist.t) =
  let m = Netlist.sanitize n.Netlist.design_name in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "// Self-checking testbench for %s (expects done within %d cycles)\n" m
    n.Netlist.steps;
  pr "`timescale 1ns/1ps\n\n";
  pr "module %s_tb;\n" m;
  pr "  reg clk = 1'b0;\n  reg rst = 1'b1;\n  reg start = 1'b0;\n";
  pr "  wire done;\n\n";
  pr "  %s dut (.clk(clk), .rst(rst), .start(start), .done(done));\n\n" m;
  pr "  always #5 clk = ~clk;\n\n";
  pr "  integer cycles = 0;\n";
  pr "  always @(posedge clk) cycles = cycles + 1;\n\n";
  pr "  initial begin\n";
  pr "    repeat (2) @(posedge clk);\n";
  pr "    rst = 1'b0;\n";
  pr "    @(posedge clk) start = 1'b1;\n";
  pr "    @(posedge clk) start = 1'b0;\n";
  pr "    repeat (%d) @(posedge clk);\n" (n.Netlist.steps + 2);
  pr "    if (done) $display(\"PASS: done after %%0d cycles\", cycles);\n";
  pr "    else begin $display(\"FAIL: done not asserted\"); $fatal; end\n";
  pr "    $finish;\n";
  pr "  end\nendmodule\n";
  Buffer.contents buf

let vhdl (n : Netlist.t) =
  let e = Netlist.sanitize n.Netlist.design_name in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "-- Self-checking testbench for %s (expects done within %d cycles)\n" e
    n.Netlist.steps;
  pr "library ieee;\nuse ieee.std_logic_1164.all;\n\n";
  pr "entity %s_tb is\nend entity %s_tb;\n\n" e e;
  pr "architecture sim of %s_tb is\n" e;
  pr "  signal clk   : std_logic := '0';\n";
  pr "  signal rst   : std_logic := '1';\n";
  pr "  signal start : std_logic := '0';\n";
  pr "  signal done  : std_logic;\n";
  pr "begin\n\n";
  pr "  dut : entity work.%s port map (clk => clk, rst => rst, start => start, done => done);\n\n" e;
  pr "  clk <= not clk after 5 ns;\n\n";
  pr "  stimulus : process\n  begin\n";
  pr "    wait for 20 ns;\n    rst <= '0';\n";
  pr "    wait until rising_edge(clk);\n    start <= '1';\n";
  pr "    wait until rising_edge(clk);\n    start <= '0';\n";
  pr "    for i in 0 to %d loop\n      wait until rising_edge(clk);\n    end loop;\n"
    (n.Netlist.steps + 1);
  pr "    assert done = '1' report \"FAIL: done not asserted\" severity failure;\n";
  pr "    report \"PASS\";\n    wait;\n";
  pr "  end process;\n\nend architecture sim;\n";
  Buffer.contents buf
