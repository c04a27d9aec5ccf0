let emit ?(width = 16) (n : Netlist.t) =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let entity = Netlist.sanitize n.Netlist.design_name in
  pr "-- Generated by pchls: power-constrained high-level synthesis\n";
  pr "-- design %s: %d control steps, %d functional units, %d registers\n\n"
    entity n.Netlist.steps
    (List.length n.Netlist.fus)
    n.Netlist.register_count;
  pr "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n";
  pr "entity %s is\n" entity;
  pr "  generic (WIDTH : integer := %d);\n" width;
  pr "  port (clk   : in  std_logic;\n";
  pr "        rst   : in  std_logic;\n";
  pr "        start : in  std_logic;\n";
  pr "        done  : out std_logic);\n";
  pr "end entity %s;\n\n" entity;
  pr "architecture rtl of %s is\n" entity;
  pr "  subtype word is std_logic_vector(WIDTH - 1 downto 0);\n";
  pr "  type step_t is range 0 to %d;\n" (n.Netlist.steps - 1);
  pr "  signal step : step_t := 0;\n";
  List.iter
    (fun (r, _) -> pr "  signal r%d : word := (others => '0');\n" r)
    n.Netlist.register_writers;
  List.iter
    (fun (f : Netlist.fu) ->
      pr "  signal %s_go  : std_logic := '0';\n" f.Netlist.label;
      pr "  signal %s_out : word;\n" f.Netlist.label)
    n.Netlist.fus;
  pr "begin\n\n";
  pr "  -- control FSM: one state per control step\n";
  pr "  control : process (clk)\n  begin\n";
  pr "    if rising_edge(clk) then\n";
  pr "      if rst = '1' then\n        step <= 0;\n        done <= '0';\n";
  pr "      elsif start = '1' or step /= 0 then\n";
  pr "        if step = %d then\n          step <= 0;\n          done <= '1';\n"
    (n.Netlist.steps - 1);
  pr "        else\n          step <= step + 1;\n          done <= '0';\n";
  pr "        end if;\n      end if;\n    end if;\n  end process;\n\n";
  pr "  -- per-step start strobes\n";
  List.iter
    (fun (f : Netlist.fu) ->
      let steps =
        List.filter_map
          (fun (step, acts) ->
            if List.exists (fun (fu, _) -> fu = f.Netlist.fu_id) acts then
              Some (string_of_int step)
            else None)
          n.Netlist.activations
      in
      match steps with
      | [] -> pr "  %s_go <= '0';\n" f.Netlist.label
      | steps ->
        pr "  %s_go <= '1' when step = %s else '0';\n" f.Netlist.label
          (String.concat " or step = " steps))
    n.Netlist.fus;
  pr "\n  -- functional units (behavioural placeholders per module type)\n";
  List.iter
    (fun (f : Netlist.fu) ->
      let sources = List.assoc f.Netlist.fu_id n.Netlist.fu_sources in
      pr "  -- %s latency=%d cycles, sources: %s\n" f.Netlist.label
        f.Netlist.spec.Pchls_fulib.Module_spec.latency
        (if sources = [] then "(none)"
         else String.concat ", " (List.map (Printf.sprintf "r%d") sources));
      pr "  %s : process (clk)\n  begin\n" (f.Netlist.label ^ "_p");
      pr "    if rising_edge(clk) and %s_go = '1' then\n" f.Netlist.label;
      pr "      %s_out <= (others => '0');  -- operation body elided\n"
        f.Netlist.label;
      pr "    end if;\n  end process;\n")
    n.Netlist.fus;
  pr "\n  -- register file write-back\n";
  List.iter
    (fun (r, writers) ->
      match writers with
      | [] -> ()
      | [ w ] ->
        let fu = List.find (fun f -> f.Netlist.fu_id = w) n.Netlist.fus in
        pr "  r%d <= %s_out when rising_edge(clk);\n" r fu.Netlist.label
      | writers ->
        let fus =
          List.map
            (fun w -> List.find (fun f -> f.Netlist.fu_id = w) n.Netlist.fus)
            writers
        in
        pr "  -- r%d is multiply written: mux over %s\n" r
          (String.concat ", " (List.map (fun f -> f.Netlist.label) fus));
        pr "  r%d <= %s_out when rising_edge(clk);  -- select elided\n" r
          (match fus with f :: _ -> f.Netlist.label | [] -> "?"))
    n.Netlist.register_writers;
  pr "\nend architecture rtl;\n";
  Buffer.contents buf
