(* Tests for the JSON report layer: escaping, printer structure, and the
   analysis report shape. *)

module Json = Separ_obs.Json

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let test_scalars () =
  check_str "null" "null" (Json.to_string Json.Null);
  check_str "bool" "true" (Json.to_string (Json.Bool true));
  check_str "int" "42" (Json.to_string (Json.Int 42));
  check_str "string" "\"hi\"" (Json.to_string (Json.Str "hi"));
  check_str "integral float" "2.0" (Json.to_string (Json.Float 2.0))

let test_escaping () =
  check_str "quotes and backslashes" "\"a\\\"b\\\\c\""
    (Json.to_string (Json.Str "a\"b\\c"));
  check_str "newlines" "\"l1\\nl2\"" (Json.to_string (Json.Str "l1\nl2"));
  check_str "control chars" "\"\\u0001\""
    (Json.to_string (Json.Str "\001"))

let test_compact_structures () =
  check_str "empty list" "[]" (Json.to_string ~indent:false (Json.List []));
  check_str "empty object" "{}" (Json.to_string ~indent:false (Json.Obj []));
  check_str "nested" "{\"a\":[1,2],\"b\":{\"c\":null}}"
    (Json.to_string ~indent:false
       (Json.Obj
          [
            ("a", Json.List [ Json.Int 1; Json.Int 2 ]);
            ("b", Json.Obj [ ("c", Json.Null) ]);
          ]))

(* Regression: Float used to print with %.4f, silently rounding
   sub-0.1ms durations (and mangling large timestamps).  Every float must
   now survive a print/parse round trip exactly. *)
let test_float_roundtrip () =
  let roundtrips f =
    match Json.parse (Json.to_string (Json.Float f)) with
    | Json.Float f' -> f' = f
    | Json.Int i -> float_of_int i = f
    | _ -> false
  in
  List.iter
    (fun f -> check (Printf.sprintf "roundtrip %.17g" f) true (roundtrips f))
    [
      0.0; 2.0; -1.0; 0.1234567890123; 185.55412345678; 1e-7; 1.7e308;
      0.1 +. 0.2; (* 0.30000000000000004: needs 17 significant digits *)
      1234567.8901234567; (* microsecond timestamp scale *)
      -0.000123456789;
    ]

let test_parse () =
  check "null" true (Json.parse "null" = Json.Null);
  check "bools" true
    (Json.parse "true" = Json.Bool true && Json.parse "false" = Json.Bool false);
  check "int" true (Json.parse "-42" = Json.Int (-42));
  check "float" true (Json.parse "2.5" = Json.Float 2.5);
  check "exponent" true (Json.parse "1e3" = Json.Float 1000.0);
  check "string escapes" true
    (Json.parse "\"a\\\"b\\\\c\\n\\u0041\"" = Json.Str "a\"b\\c\nA");
  check "nested" true
    (Json.parse "{ \"a\" : [1, 2.5, null], \"b\": {\"c\": true} }"
    = Json.Obj
        [
          ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]);
          ("b", Json.Obj [ ("c", Json.Bool true) ]);
        ]);
  (* printer output parses back *)
  let v =
    Json.Obj
      [
        ("xs", Json.List [ Json.Int 1; Json.Str "two"; Json.Float 3.25 ]);
        ("flag", Json.Bool false);
      ]
  in
  check "printer/parser round trip (indented)" true
    (Json.parse (Json.to_string v) = v);
  check "printer/parser round trip (compact)" true
    (Json.parse (Json.to_string ~indent:false v) = v);
  let fails s =
    match Json.parse s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  check "trailing garbage rejected" true (fails "1 2");
  check "unterminated string rejected" true (fails "\"abc");
  check "bare word rejected" true (fails "nope")

(* Satellite: the RQ4 confidence intervals must use Student's t on the
   sample standard deviation, not z = 1.96 on the population one. *)
let test_stats_ci () =
  let module Stats = Separ_report.Stats in
  let checkf msg expected actual =
    Alcotest.(check (float 1e-9)) msg expected actual
  in
  let xs = [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  (* population stddev of xs is 2.0; sample (n-1) stddev is larger *)
  checkf "sample stddev" (sqrt (32.0 /. 7.0)) (Stats.sample_stddev xs);
  checkf "t df=1" 12.706 (Stats.t_critical_95 ~df:1);
  checkf "t df=10" 2.228 (Stats.t_critical_95 ~df:10);
  checkf "t df=30" 2.042 (Stats.t_critical_95 ~df:30);
  checkf "t df=32 rounds down to df=40 entry" 2.042 (Stats.t_critical_95 ~df:32);
  checkf "t df=1000 ~ z" 1.980 (Stats.t_critical_95 ~df:1000);
  (* n = 8 => df = 7 => t = 2.365 *)
  checkf "ci95 halfwidth"
    (2.365 *. sqrt (32.0 /. 7.0) /. sqrt 8.0)
    (Stats.ci95_halfwidth xs);
  (* the t interval is strictly wider than the old z interval *)
  check "t interval wider than z" true
    (Stats.ci95_halfwidth xs > 1.96 *. Stats.stddev xs /. sqrt 8.0)

let test_analysis_report_shape () =
  let analysis =
    Separ.analyze [ Separ.Demo.navigation_app (); Separ.Demo.messenger_app () ]
  in
  let s =
    Separ_report.Report.to_string ~report:analysis.Separ.report
      ~policies:analysis.Separ.policies ()
  in
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check "has bundle stats" true (contains "\"bundle\"");
  check "has vulnerabilities" true (contains "\"intent_hijack\"");
  check "has policies" true (contains "\"user_prompt\"");
  check "policy conditions serialized" true (contains "Intent.extra=LOCATION");
  (* compact output is a single line *)
  let compact =
    Separ_report.Report.to_string ~indent:false ~report:analysis.Separ.report
      ~policies:analysis.Separ.policies ()
  in
  check "compact is one line" false (String.contains compact '\n')

let tests =
  [
    Alcotest.test_case "scalars" `Quick test_scalars;
    Alcotest.test_case "escaping" `Quick test_escaping;
    Alcotest.test_case "compact structures" `Quick test_compact_structures;
    Alcotest.test_case "float round trip" `Quick test_float_roundtrip;
    Alcotest.test_case "json parser" `Quick test_parse;
    Alcotest.test_case "t-based confidence intervals" `Quick test_stats_ci;
    Alcotest.test_case "analysis report shape" `Quick test_analysis_report_shape;
  ]
