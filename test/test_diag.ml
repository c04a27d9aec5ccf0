module Diag = Pchls_diag.Diag
module Json = Pchls_obs.Json

let d1 =
  Diag.errorf ~code:"SCH003" ~layer:Schedule ~entity:(Edge (0, 1))
    "node 1 starts before predecessor 0 finishes"

let d2 =
  Diag.warningf ~code:"NET004" ~layer:Netlist ~entity:(Register 2)
    "register 2 is never read"

let d3 =
  Diag.errorf ~code:"DFG001" ~layer:Dfg ~entity:(Node 4)
    "dependency cycle through nodes: 4, 5"

let test_registry_codes_unique () =
  let codes = List.map (fun (c, _, _) -> c) Diag.registry in
  Alcotest.(check int)
    "no duplicate codes"
    (List.length codes)
    (List.length (List.sort_uniq String.compare codes))

let test_registry_covers_emitted () =
  List.iter
    (fun d ->
      match Diag.describe d.Diag.code with
      | Some _ -> ()
      | None -> Alcotest.fail (d.Diag.code ^ " missing from registry"))
    [ d1; d2; d3 ]

let test_sort_deterministic () =
  let sorted = Diag.sort [ d2; d1; d3 ] in
  Alcotest.(check (list string))
    "errors first, then pipeline order"
    [ "DFG001"; "SCH003"; "NET004" ]
    (List.map (fun d -> d.Diag.code) sorted);
  Alcotest.(check int) "dedupes" 3 (List.length (Diag.sort [ d1; d2; d3; d1 ]))

let test_counts () =
  let ds = [ d1; d2; d3 ] in
  Alcotest.(check int) "errors" 2 (Diag.count Diag.Error ds);
  Alcotest.(check int) "warnings" 1 (Diag.count Diag.Warning ds);
  Alcotest.(check bool) "has_errors" true (Diag.has_errors ds);
  Alcotest.(check bool) "warnings alone" false (Diag.has_errors [ d2 ])

let test_to_string () =
  Alcotest.(check string)
    "text rendering"
    "error[SCH003] schedule edge 0->1: node 1 starts before predecessor 0 \
     finishes"
    (Diag.to_string d1)

let test_json () =
  let d =
    Diag.errorf ~code:"X001" ~layer:Dfg ~entity:Diag.Design "say \"hi\"\n"
  in
  Alcotest.(check string)
    "escaped"
    {|{"code":"X001","severity":"error","layer":"dfg","entity":"design","message":"say \"hi\"\n"}|}
    (Json.to_string (Diag.to_json d));
  Alcotest.(check string) "empty array" "[]"
    (Json.to_string (Diag.list_to_json []));
  let json = Json.to_string (Diag.list_to_json [ d1; d2 ]) in
  Alcotest.(check bool) "array wraps objects" true
    (String.length json > 2
    && json.[0] = '['
    && json.[String.length json - 1] = ']')

let test_describe () =
  (match Diag.describe "SCH005" with
  | Some desc -> Alcotest.(check bool) "non-empty" true (String.length desc > 0)
  | None -> Alcotest.fail "SCH005 undocumented");
  Alcotest.(check (option string)) "unknown code" None (Diag.describe "ZZZ999")

let () =
  Alcotest.run "diag"
    [
      ( "diag",
        [
          Alcotest.test_case "registry codes unique" `Quick
            test_registry_codes_unique;
          Alcotest.test_case "registry covers emitted" `Quick
            test_registry_covers_emitted;
          Alcotest.test_case "sort deterministic" `Quick test_sort_deterministic;
          Alcotest.test_case "severity counts" `Quick test_counts;
          Alcotest.test_case "text rendering" `Quick test_to_string;
          Alcotest.test_case "json rendering" `Quick test_json;
          Alcotest.test_case "describe" `Quick test_describe;
        ] );
    ]
