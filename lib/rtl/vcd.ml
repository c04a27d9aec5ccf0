module Design = Pchls_core.Design
module Module_spec = Pchls_fulib.Module_spec
module Profile = Pchls_power.Profile

(* VCD identifiers are short printable strings; '!' + index is always valid
   and unique. *)
let ident i = Printf.sprintf "!%d" i

let of_design d =
  let instances = Design.instances d in
  let steps = Design.time_limit d in
  let profile = Profile.to_array (Design.profile d) in
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let scope = Netlist.sanitize (Pchls_dfg.Graph.name (Design.graph d)) in
  pr "$version pchls power-constrained HLS $end\n";
  pr "$timescale 1ns $end\n";
  pr "$scope module %s $end\n" scope;
  List.iteri
    (fun i (inst : Design.instance) ->
      pr "$var wire 1 %s %s_busy $end\n" (ident i)
        (Netlist.sanitize
           (Printf.sprintf "fu%d_%s" inst.Design.id
              inst.Design.spec.Module_spec.name)))
    instances;
  let power_id = ident (List.length instances) in
  let step_id = ident (List.length instances + 1) in
  pr "$var real 64 %s power $end\n" power_id;
  pr "$var integer 32 %s step $end\n" step_id;
  pr "$upscope $end\n$enddefinitions $end\n";
  (* busy.(i).(t) — instance i executing during step t *)
  let busy =
    List.map
      (fun (inst : Design.instance) ->
        let row = Array.make (steps + 1) false in
        List.iter
          (fun (_, t) ->
            for tau = t to min steps (t + inst.Design.spec.Module_spec.latency - 1) do
              row.(tau) <- true
            done)
          inst.Design.ops;
        row)
      instances
    |> Array.of_list
  in
  let emitted_busy = Array.make (Array.length busy) None in
  let emitted_power = ref None in
  for t = 0 to steps do
    pr "#%d\n" t;
    if t = 0 then pr "$dumpvars\n";
    Array.iteri
      (fun i row ->
        let v = row.(t) in
        if emitted_busy.(i) <> Some v then begin
          pr "%d%s\n" (if v then 1 else 0) (ident i);
          emitted_busy.(i) <- Some v
        end)
      busy;
    let p = if t < steps then profile.(t) else 0. in
    if !emitted_power <> Some p then begin
      pr "r%.6g %s\n" p power_id;
      emitted_power := Some p
    end;
    pr "b%s %s\n"
      (let rec bits v acc = if v = 0 then acc else bits (v / 2) (string_of_int (v mod 2) ^ acc) in
       if t = 0 then "0" else bits t "")
      step_id;
    if t = 0 then pr "$end\n"
  done;
  Buffer.contents buf
