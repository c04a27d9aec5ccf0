module Module_spec = Pchls_fulib.Module_spec
module Op = Pchls_dfg.Op

let mk ?(name = "m") ?(ops = [ Op.Add ]) ?(area = 10.) ?(latency = 1)
    ?(power = 1.) () =
  Module_spec.make ~name ~ops ~area ~latency ~power

let ok = function
  | Ok m -> m
  | Error e -> Alcotest.fail e

let expect_error what = function
  | Ok _ -> Alcotest.fail ("expected error: " ^ what)
  | Error _ -> ()

let test_make_valid () =
  let m = ok (mk ()) in
  Alcotest.(check string) "name" "m" m.Module_spec.name;
  Alcotest.(check int) "latency" 1 m.Module_spec.latency

let test_rejects_empty_name () = expect_error "empty name" (mk ~name:"" ())
let test_rejects_no_ops () = expect_error "no ops" (mk ~ops:[] ())

let test_rejects_duplicate_ops () =
  expect_error "dup ops" (mk ~ops:[ Op.Add; Op.Add ] ())

let test_rejects_negative_area () = expect_error "area" (mk ~area:(-1.) ())
let test_rejects_zero_latency () = expect_error "latency" (mk ~latency:0 ())
let test_rejects_negative_power () = expect_error "power" (mk ~power:(-0.1) ())

let test_rejects_non_finite () =
  List.iter
    (fun (what, spec) ->
      match spec with
      | Ok _ -> Alcotest.fail ("accepted " ^ what)
      | Error msg ->
        Alcotest.(check string) what "module m has non-finite area/power" msg)
    [
      ("NaN area", mk ~area:Float.nan ());
      ("infinite area", mk ~area:Float.infinity ());
      ("NaN power", mk ~power:Float.nan ());
      ("infinite power", mk ~power:Float.infinity ());
    ]

let test_ops_sorted () =
  let m = ok (mk ~ops:[ Op.Comp; Op.Add; Op.Sub ] ()) in
  Alcotest.(check bool) "sorted" true
    (m.Module_spec.ops = List.sort Op.compare m.Module_spec.ops)

let test_implements () =
  let alu = ok (mk ~name:"ALU" ~ops:[ Op.Add; Op.Sub; Op.Comp ] ()) in
  Alcotest.(check bool) "add" true (Module_spec.implements alu Op.Add);
  Alcotest.(check bool) "comp" true (Module_spec.implements alu Op.Comp);
  Alcotest.(check bool) "not mult" false (Module_spec.implements alu Op.Mult)

let test_energy () =
  let m = ok (mk ~latency:4 ~power:2.7 ()) in
  Alcotest.(check (float 1e-9)) "4 * 2.7" 10.8 (Module_spec.energy m)

let test_equal () =
  let a = ok (mk ()) and b = ok (mk ()) in
  Alcotest.(check bool) "equal" true (Module_spec.equal a b);
  let c = ok (mk ~area:11. ()) in
  Alcotest.(check bool) "area differs" false (Module_spec.equal a c);
  let d = ok (mk ~ops:[ Op.Sub ] ()) in
  Alcotest.(check bool) "ops differ" false (Module_spec.equal a d)

let test_make_exn () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Module_spec.make_exn ~name:"" ~ops:[ Op.Add ] ~area:1. ~latency:1
                 ~power:1.);
       false
     with Invalid_argument _ -> true)

let test_pp () =
  let m = ok (mk ~name:"mult_ser" ~ops:[ Op.Mult ] ~area:103. ~latency:4
                ~power:2.7 ()) in
  let s = Format.asprintf "%a" Module_spec.pp m in
  Alcotest.(check bool) "mentions name" true
    (String.length s >= 8 && String.sub s 0 8 = "mult_ser")

let () =
  Alcotest.run "module_spec"
    [
      ( "module_spec",
        [
          Alcotest.test_case "valid spec" `Quick test_make_valid;
          Alcotest.test_case "empty name rejected" `Quick test_rejects_empty_name;
          Alcotest.test_case "empty ops rejected" `Quick test_rejects_no_ops;
          Alcotest.test_case "duplicate ops rejected" `Quick
            test_rejects_duplicate_ops;
          Alcotest.test_case "negative area rejected" `Quick
            test_rejects_negative_area;
          Alcotest.test_case "zero latency rejected" `Quick
            test_rejects_zero_latency;
          Alcotest.test_case "negative power rejected" `Quick
            test_rejects_negative_power;
          Alcotest.test_case "non-finite area and power rejected" `Quick
            test_rejects_non_finite;
          Alcotest.test_case "ops normalised" `Quick test_ops_sorted;
          Alcotest.test_case "implements" `Quick test_implements;
          Alcotest.test_case "energy" `Quick test_energy;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "make_exn raises" `Quick test_make_exn;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
    ]
