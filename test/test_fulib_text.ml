module Text_format = Pchls_fulib.Text_format
module Library = Pchls_fulib.Library
module Module_spec = Pchls_fulib.Module_spec

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let err what = function
  | Ok _ -> Alcotest.fail ("expected error: " ^ what)
  | Error msg -> msg

let test_roundtrip_default () =
  let lib = ok (Text_format.of_string (Text_format.to_string Library.default)) in
  let original = Library.to_list Library.default in
  let parsed = Library.to_list lib in
  Alcotest.(check int) "same size" (List.length original) (List.length parsed);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (a.Module_spec.name ^ " roundtrips")
        true (Module_spec.equal a b))
    original parsed

let test_parse_symbols_and_comments () =
  let text =
    "# comment\n\nmodule alu +,-,> 97 1 2.5\nmodule m * 103 4 2.7\n"
  in
  let lib = ok (Text_format.of_string text) in
  Alcotest.(check int) "two modules" 2 (List.length (Library.to_list lib));
  match Library.find lib "alu" with
  | Some m ->
    Alcotest.(check int) "three ops" 3 (List.length m.Module_spec.ops)
  | None -> Alcotest.fail "alu missing"

let test_error_lines () =
  let contains needle msg =
    let n = String.length needle and h = String.length msg in
    let rec go i = i + n <= h && (String.sub msg i n = needle || go (i + 1)) in
    go 0
  in
  let check_line needle text =
    Alcotest.(check bool) needle true
      (contains needle (err needle (Text_format.of_string text)))
  in
  check_line "line 1" "bogus x + 1 1 1";
  check_line "line 2" "module a + 1 1 1\nmodule b + nan_area 1 1"
    |> ignore;
  check_line "line 1" "module a + 1 one 1";
  check_line "line 1" "module a fancyop 1 1 1";
  check_line "line 1" "module a +";
  (* NaN and infinity read as floats; the spec check refuses them and the
     message still names the line. *)
  List.iter
    (fun (line, text) ->
      let msg = err line (Text_format.of_string text) in
      Alcotest.(check bool) (line ^ ": " ^ msg) true
        (contains line msg && contains "non-finite area/power" msg))
    [
      ("line 2", "module a + 1 1 1\nmodule b + 87 1 nan");
      ("line 3", "module a + 1 1 1\n# comment\nmodule b + inf 1 1");
    ]

let test_spec_validation_applies () =
  ignore (err "zero latency" (Text_format.of_string "module a + 1 0 1"));
  ignore (err "duplicate names"
            (Text_format.of_string "module a + 1 1 1\nmodule a - 1 1 1"));
  ignore (err "empty library" (Text_format.of_string "# nothing\n"))

let test_parsed_library_synthesizes () =
  let lib = ok (Text_format.of_string (Text_format.to_string Library.default)) in
  match
    Pchls_core.Engine.run ~library:lib ~time_limit:17 ~power_limit:10.
      Pchls_dfg.Benchmarks.hal
  with
  | Pchls_core.Engine.Synthesized _ -> ()
  | Pchls_core.Engine.Infeasible { reason } -> Alcotest.fail reason

let () =
  Alcotest.run "fulib_text"
    [
      ( "fulib_text",
        [
          Alcotest.test_case "default library roundtrips" `Quick
            test_roundtrip_default;
          Alcotest.test_case "symbols and comments" `Quick
            test_parse_symbols_and_comments;
          Alcotest.test_case "error line numbers" `Quick test_error_lines;
          Alcotest.test_case "spec validation applies" `Quick
            test_spec_validation_applies;
          Alcotest.test_case "parsed library synthesizes" `Quick
            test_parsed_library_synthesizes;
        ] );
    ]
