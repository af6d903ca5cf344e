(* Tests for the separ_obs telemetry kernel: deterministic-clock span
   nesting and ordering, counter/gauge/histogram semantics, the
   disabled-mode no-op path, the structured NDJSON event log (envelope,
   level threshold, rate limiting, rendering through [Json], worker
   capture and replay), the bounded span ring, GC-profiled
   spans, and validity of the exported Chrome-trace and metric JSON
   under the minimal reader. *)

module Trace = Separ_obs.Trace
module Metrics = Separ_obs.Metrics
module Log = Separ_obs.Log
module Json = Separ_obs.Json
module Telemetry = Separ_report.Telemetry

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let checkf msg expected actual =
  Alcotest.(check (float 1e-9)) msg expected actual

(* Run [f] with telemetry enabled, a deterministic clock driven by
   [tick], and a guaranteed return to the pristine disabled state. *)
let with_deterministic_telemetry f =
  let now = ref 0.0 in
  let tick s = now := !now +. s in
  Trace.set_clock (fun () -> !now);
  Trace.enable ();
  Metrics.enable ();
  Trace.reset ();
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Metrics.disable ();
      Trace.use_default_clock ();
      Trace.reset ();
      Metrics.reset ())
    (fun () -> f tick)

(* --- spans ----------------------------------------------------------------- *)

let test_span_nesting () =
  with_deterministic_telemetry (fun tick ->
      Trace.with_span "outer" (fun () ->
          tick 0.001;
          Trace.with_span "inner_a" (fun () -> tick 0.002);
          Trace.with_span "inner_b" (fun () ->
              tick 0.001;
              Trace.with_span "leaf" (fun () -> tick 0.0005));
          tick 0.001);
      match Trace.roots () with
      | [ outer ] ->
          check_str "root name" "outer" outer.Trace.sp_name;
          checkf "outer start" 0.0 outer.Trace.sp_start_us;
          checkf "outer duration" 5500.0 outer.Trace.sp_dur_us;
          (match outer.Trace.sp_children with
          | [ a; b ] ->
              check_str "first child" "inner_a" a.Trace.sp_name;
              checkf "inner_a start" 1000.0 a.Trace.sp_start_us;
              checkf "inner_a duration" 2000.0 a.Trace.sp_dur_us;
              check_str "second child" "inner_b" b.Trace.sp_name;
              checkf "inner_b start" 3000.0 b.Trace.sp_start_us;
              checkf "inner_b duration" 1500.0 b.Trace.sp_dur_us;
              (match b.Trace.sp_children with
              | [ leaf ] ->
                  check_str "grandchild" "leaf" leaf.Trace.sp_name;
                  checkf "leaf start" 4000.0 leaf.Trace.sp_start_us;
                  checkf "leaf duration" 500.0 leaf.Trace.sp_dur_us
              | kids ->
                  Alcotest.failf "inner_b has %d children" (List.length kids))
          | kids -> Alcotest.failf "outer has %d children" (List.length kids))
      | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots))

let test_span_ordering_and_helpers () =
  with_deterministic_telemetry (fun tick ->
      for _ = 1 to 3 do
        Trace.with_span "phase" (fun () -> tick 0.001)
      done;
      check_int "three roots" 3 (List.length (Trace.roots ()));
      check_int "count" 3 (Trace.count "phase");
      checkf "total_ms" 3.0 (Trace.total_ms "phase");
      (* completion order = start order for sequential spans *)
      let starts =
        List.map (fun s -> s.Trace.sp_start_us) (Trace.roots ())
      in
      check "monotone starts" true (List.sort compare starts = starts))

let test_span_attrs () =
  with_deterministic_telemetry (fun tick ->
      Trace.with_span "work" ~attrs:[ Trace.attr_str "kind" "demo" ] (fun () ->
          tick 0.001;
          Trace.add_attr "items" (Trace.Int 7));
      match Trace.roots () with
      | [ sp ] ->
          check "has kind attr" true
            (List.mem_assoc "kind" sp.Trace.sp_attrs);
          check "has items attr" true
            (List.mem_assoc "items" sp.Trace.sp_attrs)
      | _ -> Alcotest.fail "expected one span")

let test_span_exception_safety () =
  with_deterministic_telemetry (fun tick ->
      (try
         Trace.with_span "outer" (fun () ->
             Trace.with_span "failing" (fun () ->
                 tick 0.002;
                 failwith "boom"))
       with Failure _ -> ());
      (* both spans were finished despite the exception; a new span does
         not end up parented under a stale open span *)
      Trace.with_span "after" (fun () -> tick 0.001);
      let names = List.map (fun s -> s.Trace.sp_name) (Trace.roots ()) in
      check "outer and after are roots" true (names = [ "outer"; "after" ]);
      check_int "failing recorded under outer" 1 (Trace.count "failing"))

let test_timed_measures_when_disabled () =
  let now = ref 0.0 in
  Trace.set_clock (fun () -> !now);
  Trace.disable ();
  Trace.reset ();
  Fun.protect
    ~finally:(fun () -> Trace.use_default_clock ())
    (fun () ->
      let v, ms =
        Trace.timed "untraced" (fun () ->
            now := !now +. 0.25;
            42)
      in
      check_int "thunk result" 42 v;
      checkf "duration still measured" 250.0 ms;
      check_int "but no span recorded" 0 (List.length (Trace.roots ())))

(* --- metrics --------------------------------------------------------------- *)

let test_counter_and_gauge () =
  with_deterministic_telemetry (fun _tick ->
      let c = Metrics.counter "test.counter" in
      Metrics.incr c;
      Metrics.incr c;
      Metrics.add c 5;
      check_int "counter value" 7 (Metrics.counter_value c);
      (* a second lookup returns the same underlying cell *)
      Metrics.incr (Metrics.counter "test.counter");
      check_int "shared handle" 8 (Metrics.counter_value c);
      let g = Metrics.gauge "test.gauge" in
      Metrics.set g 3.5;
      Metrics.add_to g 1.5;
      checkf "gauge value" 5.0 (Metrics.gauge_value g);
      Metrics.reset ();
      check_int "reset zeroes counters" 0 (Metrics.counter_value c);
      checkf "reset zeroes gauges" 0.0 (Metrics.gauge_value g))

let test_histogram_semantics () =
  with_deterministic_telemetry (fun _tick ->
      let h = Metrics.histogram ~buckets:[| 1.0; 5.0; 10.0 |] "test.hist" in
      List.iter (Metrics.observe h) [ 0.5; 1.0; 3.0; 7.0; 100.0 ];
      check_int "count" 5 (Metrics.histogram_count h);
      checkf "sum" 111.5 (Metrics.histogram_sum h);
      checkf "mean" 22.3 (Metrics.histogram_mean h);
      match Metrics.histogram_buckets h with
      | [ (le1, n1); (le5, n2); (le10, n3); (inf_le, n4) ] ->
          checkf "bucket bound 1" 1.0 le1;
          check_int "le 1.0 (boundary inclusive)" 2 n1;
          checkf "bucket bound 5" 5.0 le5;
          check_int "le 5.0" 1 n2;
          checkf "bucket bound 10" 10.0 le10;
          check_int "le 10.0" 1 n3;
          check "last bound is +inf" true (inf_le = infinity);
          check_int "overflow" 1 n4
      | bs -> Alcotest.failf "expected 4 buckets, got %d" (List.length bs))

let test_disabled_is_noop () =
  Trace.disable ();
  Metrics.disable ();
  Trace.reset ();
  let ran = ref false in
  Trace.with_span "ghost" (fun () -> ran := true);
  check "thunk still runs" true !ran;
  check_int "no spans recorded" 0 (List.length (Trace.roots ()));
  Trace.add_attr "ghost" (Trace.Int 1);
  let c = Metrics.counter "test.disabled_counter" in
  Metrics.incr c;
  Metrics.add c 10;
  check_int "counter untouched" 0 (Metrics.counter_value c);
  let h = Metrics.histogram "test.disabled_hist" in
  Metrics.observe h 3.0;
  check_int "histogram untouched" 0 (Metrics.histogram_count h)

(* --- export ---------------------------------------------------------------- *)

(* The exported trace must parse under the minimal JSON reader, every
   event must be a well-formed "X" event, and parent/child relationships
   must be recoverable from interval containment. *)
let test_trace_export_wellformed () =
  with_deterministic_telemetry (fun tick ->
      Trace.with_span "parent" (fun () ->
          tick 0.001;
          Trace.with_span "child" (fun () ->
              tick 0.002;
              Trace.add_attr "n" (Trace.Int 3));
          tick 0.001);
      let s = Json.to_string (Telemetry.trace_json ()) in
      let parsed = Json.parse s in
      let events =
        match Option.bind (Json.member "traceEvents" parsed) Json.to_list with
        | Some evs -> evs
        | None -> Alcotest.fail "no traceEvents array"
      in
      check_int "two events" 2 (List.length events);
      let field ev k = Json.member k ev in
      List.iter
        (fun ev ->
          check "has name" true
            (Option.bind (field ev "name") Json.to_str <> None);
          check_str "ph is X" "X"
            (Option.get (Option.bind (field ev "ph") Json.to_str));
          check "numeric ts" true
            (Option.bind (field ev "ts") Json.to_float <> None);
          check "numeric dur" true
            (Option.bind (field ev "dur") Json.to_float <> None))
        events;
      let find name =
        List.find
          (fun ev ->
            Option.bind (field ev "name") Json.to_str = Some name)
          events
      in
      let ts ev = Option.get (Option.bind (field ev "ts") Json.to_float) in
      let dur ev = Option.get (Option.bind (field ev "dur") Json.to_float) in
      let p = find "parent" and c = find "child" in
      check "child starts after parent" true (ts c >= ts p);
      check "child ends before parent" true
        (ts c +. dur c <= ts p +. dur p);
      check "child strictly inside" true (dur c < dur p);
      (* args carried through *)
      check "child args has n" true
        (match Option.bind (field c "args") (Json.member "n") with
        | Some (Json.Int 3) -> true
        | _ -> false))

let test_metrics_export () =
  with_deterministic_telemetry (fun _tick ->
      Metrics.add (Metrics.counter "test.exported") 4;
      Metrics.set (Metrics.gauge "test.exported_gauge") 2.5;
      let h =
        Metrics.histogram ~buckets:[| 1.0; 5.0; 10.0 |] "test.exported_hist"
      in
      List.iter (Metrics.observe h) [ 0.5; 1.0; 3.0; 7.0; 100.0 ];
      (* the file [--metrics-out] writes is exactly [metrics_json ()] *)
      let path = Filename.temp_file "separ_test_metrics" ".json" in
      let text =
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Telemetry.write_metrics path;
            In_channel.with_open_bin path In_channel.input_all)
      in
      let parsed = Json.parse text in
      check "--metrics-out file parses back to metrics_json ()" true
        (parsed = Telemetry.metrics_json ());
      (match Option.bind (Json.member "counters" parsed)
               (Json.member "test.exported") with
      | Some (Json.Int 4) -> ()
      | _ -> Alcotest.fail "counter not exported");
      (match Option.bind (Json.member "gauges" parsed)
               (Json.member "test.exported_gauge") with
      | Some (Json.Float f) -> checkf "gauge exported" 2.5 f
      | _ -> Alcotest.fail "gauge not exported");
      match Option.bind (Json.member "histograms" parsed)
              (Json.member "test.exported_hist") with
      | Some hj ->
          check "histogram count exported" true
            (Option.bind (Json.member "count" hj) Json.to_float = Some 5.0);
          (* per-bucket counts, as the registry keeps them; the overflow
             bucket's bound is the string "inf" *)
          let bucket b =
            let le =
              match Json.member "le" b with
              | Some (Json.Str "inf") -> infinity
              | le -> Option.get (Option.bind le Json.to_float)
            in
            match Json.member "count" b with
            | Some (Json.Int n) -> (le, n)
            | _ -> Alcotest.fail "bucket without an int count"
          in
          check "bucket list equals Metrics.histogram_buckets" true
            (Option.map (List.map bucket)
               (Option.bind (Json.member "buckets" hj) Json.to_list)
            = Some (Metrics.histogram_buckets h))
      | None -> Alcotest.fail "histogram not exported")

(* A full pipeline run records the span hierarchy the report advertises:
   translation containing bounds/circuit/tseitin, sat.solve totals that
   equal the reported solving time, translate+attach totals that equal
   the reported construction time.  On the real clock every span lies
   inside its parent, siblings start in order, and the whole trace
   exports as well-formed events. *)
let test_pipeline_spans_consistent () =
  with_deterministic_telemetry (fun _tick ->
      Trace.use_default_clock ();
      let analysis =
        Separ.analyze
          [ Separ.Demo.navigation_app (); Separ.Demo.messenger_app () ]
      in
      check "pipeline produced vulnerabilities" true
        (Separ.vulnerabilities analysis <> []);
      check "ame spans" true (Trace.count "ame.extract" = 2);
      check "translate spans" true (Trace.count "relog.translate" > 0);
      (* incremental ASE: shared bases are translated once, signatures
         then attach delta sessions — each of either emits one bounds
         span *)
      check "attach spans" true (Trace.count "relog.attach" > 0);
      check_int "bounds under every translate and attach"
        (Trace.count "relog.translate" + Trace.count "relog.attach")
        (Trace.count "relog.bounds");
      List.iter
        (fun name -> check (name ^ " spans") true (Trace.count name > 0))
        [ "ase.analyze"; "ase.signature"; "relog.circuit"; "relog.tseitin";
          "sat.solve" ];
      check "policy.derive span" true (Trace.count "policy.derive" = 1);
      let report = analysis.Separ.report in
      let sat_ms = Trace.total_ms "sat.solve" in
      let reported = report.Separ_ase.Ase.r_solving_ms in
      check "sat span total = reported solving time" true
        (Float.abs (sat_ms -. reported) <= (0.01 *. reported) +. 1e-6);
      let built_ms =
        Trace.total_ms "relog.translate" +. Trace.total_ms "relog.attach"
      in
      let constructed = report.Separ_ase.Ase.r_construction_ms in
      check "translate+attach total = reported construction time" true
        (Float.abs (built_ms -. constructed) <= (0.01 *. constructed) +. 1e-6);
      check "sat.solves counter bridged" true
        (Metrics.counter_value (Metrics.counter "sat.solves") > 0);
      check_int "ame.apps_extracted counter" 2
        (Metrics.counter_value (Metrics.counter "ame.apps_extracted"));
      let rec well_nested (sp : Trace.span) =
        let fin = sp.Trace.sp_start_us +. sp.Trace.sp_dur_us in
        sp.Trace.sp_dur_us >= 0.0
        && snd
             (List.fold_left
                (fun (prev, ok) (c : Trace.span) ->
                  ( c.Trace.sp_start_us,
                    ok
                    && c.Trace.sp_start_us +. 1e-6 >= prev
                    && c.Trace.sp_start_us +. c.Trace.sp_dur_us <= fin +. 1e-6
                    && well_nested c ))
                (sp.Trace.sp_start_us, true)
                sp.Trace.sp_children)
      in
      check "spans nest inside their parents, siblings in order" true
        (List.for_all well_nested (Trace.roots ()));
      match
        Option.bind
          (Json.member "traceEvents"
             (Json.parse (Json.to_string (Telemetry.trace_json ()))))
          Json.to_list
      with
      | None | Some [] -> Alcotest.fail "pipeline trace exported no events"
      | Some events ->
          check "every exported event is a timed X event" true
            (List.for_all
               (fun ev ->
                 let num k = Option.bind (Json.member k ev) Json.to_float in
                 Option.bind (Json.member "name" ev) Json.to_str <> None
                 && Option.bind (Json.member "ph" ev) Json.to_str = Some "X"
                 && Option.fold ~none:false ~some:(fun t -> t >= 0.0) (num "ts")
                 && Option.fold ~none:false ~some:(fun d -> d >= 0.0) (num "dur"))
               events))

(* --- structured log --------------------------------------------------------- *)

let read_lines path =
  let ic = open_in path in
  let acc = ref [] in
  (try
     while true do
       let l = String.trim (input_line ic) in
       if l <> "" then acc := l :: !acc
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !acc

(* Run [f] with a temp-file log sink installed, restoring the pristine
   no-sink state (default level, default rate limit) afterwards. *)
let with_log_sink f =
  let path = Filename.temp_file "separ_test_log" ".ndjson" in
  Log.to_file path;
  Log.reset ();
  Fun.protect
    ~finally:(fun () ->
      Log.close ();
      Log.set_level Log.Info;
      Log.set_rate_limit Log.default_rate_limit;
      Log.reset ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_log_ndjson_envelope () =
  with_deterministic_telemetry (fun tick ->
      with_log_sink (fun path ->
          Log.set_level Log.Debug;
          tick 0.001;
          let span_id = ref (-1) in
          Trace.with_span "phase" (fun () ->
              span_id := Option.get (Trace.current_span_id ());
              Log.info "test.event"
                ~fields:
                  [
                    ("answer", Trace.Int 42);
                    ("ratio", Trace.Float 2.5);
                    ("who", Trace.Str "a\"b\nc");
                    ("ok", Trace.Bool true);
                  ]);
          Log.debug "test.low";
          Log.close ();
          match read_lines path with
          | [ l1; l2 ] ->
              (* the envelope line, byte for byte: key order, the
                 "%.1f" rendering of an integral float, string escaping *)
              check_str "envelope line pinned"
                (Printf.sprintf
                   "{\"ts_us\":1000.0,\"level\":\"info\",\"event\":\"test.event\",\
                    \"pid\":%d,\"span\":%d,\"answer\":42,\"ratio\":2.5,\
                    \"who\":\"a\\\"b\\nc\",\"ok\":true}"
                   (Unix.getpid ()) !span_id)
                l1;
              let j = Json.parse l1 in
              check "ts_us is the injected clock" true
                (Option.bind (Json.member "ts_us" j) Json.to_float
                = Some 1000.0);
              check "level rendered" true
                (Option.bind (Json.member "level" j) Json.to_str
                = Some "info");
              check "event name rendered" true
                (Option.bind (Json.member "event" j) Json.to_str
                = Some "test.event");
              check "pid is this process" true
                (Json.member "pid" j = Some (Json.Int (Unix.getpid ())));
              check "span id of the open span attached" true
                (match Json.member "span" j with
                | Some (Json.Int _) -> true
                | _ -> false);
              check "int field" true
                (Json.member "answer" j = Some (Json.Int 42));
              check "float field" true
                (Option.bind (Json.member "ratio" j) Json.to_float
                = Some 2.5);
              check "string field survives escaping" true
                (Json.member "who" j = Some (Json.Str "a\"b\nc"));
              check "bool field" true
                (Json.member "ok" j = Some (Json.Bool true));
              let j2 = Json.parse l2 in
              check "debug admitted at debug threshold" true
                (Option.bind (Json.member "level" j2) Json.to_str
                = Some "debug");
              check "no span key outside any span" true
                (Json.member "span" j2 = None)
          | ls -> Alcotest.failf "expected 2 log lines, got %d" (List.length ls)))

let test_log_level_threshold () =
  with_deterministic_telemetry (fun _tick ->
      with_log_sink (fun path ->
          Log.set_level Log.Warn;
          Log.debug "test.d";
          Log.info "test.i";
          Log.warn "test.w";
          Log.error "test.e";
          Log.close ();
          let events =
            List.map
              (fun l ->
                Option.bind (Json.member "event" (Json.parse l)) Json.to_str)
              (read_lines path)
          in
          check "only warn and error pass the threshold" true
            (events = [ Some "test.w"; Some "test.e" ])))

let test_log_rate_limit () =
  with_deterministic_telemetry (fun tick ->
      with_log_sink (fun path ->
          Log.set_rate_limit ~window_s:1.0 3;
          for _ = 1 to 5 do
            Log.info "test.hot"
          done;
          let _, suppressed = Log.stats () in
          check_int "overflow counted, not written" 2 suppressed;
          (* the suppressed count rides out on the next admitted event
             of the same name, in the next window *)
          tick 2.0;
          Log.info "test.hot";
          Log.close ();
          let lines = read_lines path in
          check_int "3 admitted + 1 next-window line" 4 (List.length lines);
          check "suppressed count rides out" true
            (Json.member "suppressed" (Json.parse (List.nth lines 3))
            = Some (Json.Int 2))))

(* Log fields go through the one JSON writer: for arbitrary bytes in the
   event name and a string field, any finite float and any int, the line
   is exactly [Json.to_string ~indent:false] of the envelope and fields,
   and the reader gives every value back unchanged. *)
let qcheck_log_fields_through_json =
  QCheck.Test.make ~name:"log fields render through Json" ~count:200
    QCheck.(quad string string float int)
    (fun (name, s, f, i) ->
      QCheck.assume (Float.is_finite f);
      with_deterministic_telemetry (fun _tick ->
          with_log_sink (fun path ->
              Log.info name
                ~fields:
                  [ ("s", Trace.Str s); ("f", Trace.Float f);
                    ("i", Trace.Int i) ];
              Log.close ();
              match read_lines path with
              | [ line ] ->
                  let expected =
                    Json.Obj
                      [
                        ("ts_us", Json.Float 0.0);
                        ("level", Json.Str "info");
                        ("event", Json.Str name);
                        ("pid", Json.Int (Unix.getpid ()));
                        ("s", Json.Str s);
                        ("f", Json.Float f);
                        ("i", Json.Int i);
                      ]
                  in
                  let j = Json.parse line in
                  line = Json.to_string ~indent:false expected
                  && Json.member "event" j = Some (Json.Str name)
                  && Json.member "s" j = Some (Json.Str s)
                  && Option.bind (Json.member "f" j) Json.to_float = Some f
                  && Json.member "i" j = Some (Json.Int i)
              | ls -> QCheck.Test.fail_reportf "%d lines" (List.length ls))))

(* A pool worker's captured events, replayed later through the parent's
   sink, are written as direct emission would have written them: the
   worker's own timestamps, pid and span id are kept, and capture needs
   no sink. *)
let test_log_capture_replay () =
  with_deterministic_telemetry (fun tick ->
      let span_id = ref (-1) in
      Log.capture_begin ();
      let captured =
        Fun.protect ~finally:Log.capture_end (fun () ->
            tick 0.002;
            Trace.with_span "work" (fun () ->
                span_id := Option.get (Trace.current_span_id ());
                Log.warn "test.worker"
                  ~fields:[ ("n", Trace.Int 7); ("why", Trace.Str "a\tb") ]);
            Log.info "test.done";
            Log.capture_take ())
      in
      Log.reset ();
      check_int "both events captured" 2 (List.length captured);
      let replayed =
        with_log_sink (fun path ->
            tick 5.0;
            Log.replay captured;
            Log.close ();
            read_lines path)
      in
      let pid = Unix.getpid () in
      check "replayed lines keep the worker's ts, pid and span" true
        (replayed
        = [
            Printf.sprintf
              "{\"ts_us\":2000.0,\"level\":\"warn\",\"event\":\"test.worker\",\
               \"pid\":%d,\"span\":%d,\"n\":7,\"why\":\"a\\tb\"}"
              pid !span_id;
            Printf.sprintf
              "{\"ts_us\":2000.0,\"level\":\"info\",\"event\":\"test.done\",\
               \"pid\":%d}"
              pid;
          ]))

(* --- snapshot merge --------------------------------------------------------- *)

let test_metrics_merge_mismatch () =
  with_deterministic_telemetry (fun _tick ->
      let h = Metrics.histogram ~buckets:[| 1.0; 2.0 |] "test.merge_bounds" in
      Metrics.observe h 0.5;
      let snap_ok =
        [
          Metrics.Snap_histogram
            ("test.merge_bounds", [| 1.0; 2.0 |], [| 1; 0; 0 |], 0.7, 1);
        ]
      in
      check "matching bounds merge clean" true (Metrics.merge snap_ok = []);
      check_int "counts merged additively" 2 (Metrics.histogram_count h);
      let snap_bad =
        [
          Metrics.Snap_histogram
            ("test.merge_bounds", [| 1.0; 3.0 |], [| 1; 0; 0 |], 0.7, 1);
        ]
      in
      check "mismatched bounds reported by name" true
        (Metrics.merge snap_bad = [ "test.merge_bounds" ]);
      check_int "mismatched snapshot left out of the registry" 2
        (Metrics.histogram_count h);
      check "unknown names register fresh and merge clean" true
        (Metrics.merge [ Metrics.Snap_counter ("test.merge_fresh", 3) ] = []);
      check_int "fresh counter carries the merged value" 3
        (Metrics.counter_value (Metrics.counter "test.merge_fresh")))

(* --- bounded span ring ------------------------------------------------------- *)

let test_trace_ring_bounded () =
  with_deterministic_telemetry (fun tick ->
      let cap0 = Trace.root_cap () in
      Fun.protect
        ~finally:(fun () -> Trace.set_root_cap cap0)
        (fun () ->
          Trace.set_root_cap 3;
          check_int "no drops yet" 0 (Trace.dropped_roots ());
          List.iter
            (fun name -> Trace.with_span name (fun () -> tick 0.001))
            [ "r1"; "r2"; "r3"; "r4"; "r5" ];
          let names = List.map (fun s -> s.Trace.sp_name) (Trace.roots ()) in
          check "newest three retained, oldest first" true
            (names = [ "r3"; "r4"; "r5" ]);
          check_int "overwritten roots counted" 2 (Trace.dropped_roots ());
          (* shrinking keeps the newest and counts the evictions *)
          Trace.set_root_cap 1;
          let names = List.map (fun s -> s.Trace.sp_name) (Trace.roots ()) in
          check "newest survives a shrink" true (names = [ "r5" ]);
          check_int "evictions counted as dropped" 4 (Trace.dropped_roots ());
          Trace.reset ();
          check_int "reset empties the ring" 0 (List.length (Trace.roots ()));
          check_int "reset zeroes the dropped counter" 0
            (Trace.dropped_roots ())))

(* --- GC-profiled spans ------------------------------------------------------- *)

let test_gc_profiling_spans () =
  with_deterministic_telemetry (fun _tick ->
      Trace.set_profile_gc true;
      Fun.protect
        ~finally:(fun () -> Trace.set_profile_gc false)
        (fun () ->
          (* the inner span goes through [Trace.timed], as the
             relog.translate and sat.solve spans do *)
          Trace.with_span "gc.outer" (fun () ->
              ignore
                (Trace.timed "gc.inner" (fun () ->
                     Sys.opaque_identity
                       (List.init 10_000 (fun i -> string_of_int i)))));
          match Trace.roots () with
          | [ outer ] ->
              let minor sp =
                match List.assoc_opt "gc.minor_words" sp.Trace.sp_attrs with
                | Some (Trace.Float f) -> f
                | _ ->
                    Alcotest.failf "%s has no gc.minor_words attr"
                      sp.Trace.sp_name
              in
              let inner =
                match outer.Trace.sp_children with
                | [ i ] -> i
                | kids ->
                    Alcotest.failf "expected one child, got %d"
                      (List.length kids)
              in
              check "inner span shows its allocations" true
                (minor inner > 0.0);
              check "parent delta includes the child's" true
                (minor outer >= minor inner);
              (* metrics fold only from the top-level span — folding
                 every span would double-count the nested deltas *)
              check "counter folded exactly once, from the root" true
                (Metrics.counter_value (Metrics.counter "gc.minor_words")
                = int_of_float (minor outer))
          | roots ->
              Alcotest.failf "expected 1 root, got %d" (List.length roots)))

let tests =
  [
    Alcotest.test_case "span nesting (deterministic clock)" `Quick
      test_span_nesting;
    Alcotest.test_case "span ordering and helpers" `Quick
      test_span_ordering_and_helpers;
    Alcotest.test_case "span attributes" `Quick test_span_attrs;
    Alcotest.test_case "span exception safety" `Quick
      test_span_exception_safety;
    Alcotest.test_case "timed measures when disabled" `Quick
      test_timed_measures_when_disabled;
    Alcotest.test_case "counter and gauge semantics" `Quick
      test_counter_and_gauge;
    Alcotest.test_case "histogram semantics" `Quick test_histogram_semantics;
    Alcotest.test_case "disabled mode is a no-op" `Quick
      test_disabled_is_noop;
    Alcotest.test_case "trace export is well-formed" `Quick
      test_trace_export_wellformed;
    Alcotest.test_case "metrics export" `Quick test_metrics_export;
    Alcotest.test_case "pipeline spans consistent with report" `Quick
      test_pipeline_spans_consistent;
    Alcotest.test_case "log NDJSON envelope" `Quick test_log_ndjson_envelope;
    Alcotest.test_case "log level threshold" `Quick test_log_level_threshold;
    Alcotest.test_case "log rate limiting" `Quick test_log_rate_limit;
    QCheck_alcotest.to_alcotest qcheck_log_fields_through_json;
    Alcotest.test_case "log capture and replay" `Quick test_log_capture_replay;
    Alcotest.test_case "metrics merge reports bucket mismatches" `Quick
      test_metrics_merge_mismatch;
    Alcotest.test_case "span ring stays bounded" `Quick
      test_trace_ring_bounded;
    Alcotest.test_case "GC-profiled spans" `Quick test_gc_profiling_spans;
  ]
