(* End-to-end integration tests: the complete pipeline on the paper's
   motivating example, protection on the simulated device, and the CLI's
   textual APK workflow. *)

open Separ

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let demo_apks () = [ Demo.navigation_app (); Demo.messenger_app () ]

let test_motivating_example_vulns () =
  let analysis = analyze (demo_apks ()) in
  let kinds =
    List.sort_uniq compare
      (List.map (fun v -> v.Ase.v_kind) (vulnerabilities analysis))
  in
  Alcotest.(check (list string))
    "all four vulnerability classes present"
    [
      "information_leakage"; "intent_hijack"; "privilege_escalation";
      "service_launch";
    ]
    kinds

let test_paper_section6_policy_shape () =
  (* the paper's §VI policy: ICC received + receiver + LOCATION extra ->
     user prompt *)
  let analysis = analyze (demo_apks ()) in
  check "the §VI leak policy is synthesized" true
    (List.exists
       (fun p ->
         p.Policy.p_event = Policy.Icc_receive
         && p.Policy.p_action = Policy.Prompt
         && List.mem (Policy.Extras_include Resource.Location)
              p.Policy.p_conditions
         && List.exists
              (function Policy.Receiver_is _ -> true | _ -> false)
              p.Policy.p_conditions)
       (policies analysis))

let figure1_device ~protected =
  let device = Device.create () in
  Device.install device (Demo.navigation_app ());
  Device.install device (Demo.messenger_app ());
  Device.install device (Demo.relay_malware ());
  if protected then protect device (analyze (demo_apks ()));
  Device.start_component device ~pkg:"com.example.navigation"
    ~component:"LocationFinder" ~entry:"onStartCommand";
  Device.effects device

let test_figure1_exploit_works_unprotected () =
  let effects = figure1_device ~protected:false in
  check "location exfiltrated by SMS" true
    (List.exists (Effect.is_sms_with_taint Resource.Location) effects)

let test_figure1_exploit_blocked () =
  let effects = figure1_device ~protected:true in
  check "no tainted SMS" false
    (List.exists (Effect.is_sms_with_taint Resource.Location) effects);
  check "a policy blocked the chain" true (List.exists Effect.is_blocked effects);
  (* defense in depth notwithstanding, the hijack policy fires at the
     FIRST hop: the location never even reaches the malicious Relay *)
  check "blocked before reaching the malware" false
    (List.exists
       (function
         | Effect.Intent_delivered { receiver = "Relay"; _ } -> true
         | _ -> false)
       effects)

let test_protection_preserves_legitimate_use () =
  (* a benign app's implicit messaging (untainted payload) is untouched
     by the policies synthesized for the vulnerable demo bundle *)
  let module B = Builder in
  let benign =
    Apk.make
      ~manifest:
        (Manifest.make ~package:"com.benign"
           ~components:
             [
               Component.make ~name:"Ui" ~kind:Component.Activity ();
               Component.make ~name:"Sync" ~kind:Component.Service
                 ~intent_filters:
                   [ Intent_filter.make ~actions:[ "benign.sync" ] () ]
                 ();
             ]
           ())
      ~classes:
        [
          B.cls ~name:"Ui"
            [
              B.meth ~name:"onCreate" ~params:1 (fun b ->
                  let i = B.new_intent b in
                  B.set_action b i "benign.sync";
                  let v = B.const_str b "refresh" in
                  B.put_extra b i ~key:"op" ~value:v;
                  B.start_service b i);
            ];
          B.cls ~name:"Sync"
            [ B.meth ~name:"onStartCommand" ~params:1 (fun b -> B.nop b) ];
        ]
  in
  let apks = benign :: demo_apks () in
  let device = Device.create () in
  List.iter (Device.install device) apks;
  protect device (analyze apks);
  Device.start_component device ~pkg:"com.benign" ~component:"Ui";
  let effects = Device.effects device in
  check "benign intent delivered" true
    (List.exists
       (function
         | Effect.Intent_delivered { receiver = "Sync"; _ } -> true
         | _ -> false)
       effects);
  check "no prompts or blocks for benign traffic" false
    (List.exists
       (function
         | Effect.Prompt_shown _ | Effect.Delivery_blocked _ -> true
         | _ -> false)
       effects)

let test_policies_survive_serialization () =
  let analysis = analyze (demo_apks ()) in
  let text = Policy.to_string (policies analysis) in
  let restored = Policy.of_string text in
  check "round trip equal" true (restored = policies analysis)

let test_apk_text_pipeline () =
  (* write the demo apps as text, re-load, analyze: same vulnerabilities *)
  let dir = Filename.temp_file "separ" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let paths =
    List.mapi
      (fun i apk ->
        let path = Filename.concat dir (Printf.sprintf "a%d.apk.txt" i) in
        Separ_dalvik.Apk_text.save path apk;
        path)
      (demo_apks ())
  in
  let reloaded = List.map Separ_dalvik.Apk_text.load paths in
  let a1 = analyze (demo_apks ()) and a2 = analyze reloaded in
  check_int "same number of vulnerabilities"
    (List.length (vulnerabilities a1))
    (List.length (vulnerabilities a2));
  List.iter Sys.remove paths;
  Unix.rmdir dir

let test_analysis_report_stats () =
  let analysis = analyze (demo_apks ()) in
  let r = analysis.report in
  check_int "apps" 2 r.Ase.r_stats.Bundle.n_apps;
  check_int "components" 3 r.Ase.r_stats.Bundle.n_components;
  check "construction time recorded" true (r.Ase.r_construction_ms > 0.0);
  check "solver produced variables" true (r.Ase.r_vars > 0)

let tests =
  [
    Alcotest.test_case "motivating example vulnerabilities" `Quick
      test_motivating_example_vulns;
    Alcotest.test_case "paper §VI policy shape" `Quick
      test_paper_section6_policy_shape;
    Alcotest.test_case "Figure 1 exploit works unprotected" `Quick
      test_figure1_exploit_works_unprotected;
    Alcotest.test_case "Figure 1 exploit blocked" `Quick
      test_figure1_exploit_blocked;
    Alcotest.test_case "legitimate traffic preserved" `Quick
      test_protection_preserves_legitimate_use;
    Alcotest.test_case "policy serialization" `Quick
      test_policies_survive_serialization;
    Alcotest.test_case "textual APK pipeline" `Quick test_apk_text_pipeline;
    Alcotest.test_case "report statistics" `Quick test_analysis_report_stats;
  ]

(* --- future-work features: incremental analysis, two-hop leaks ------------- *)

let test_incremental_reanalysis () =
  let analysis = analyze (demo_apks ()) in
  let kinds a =
    List.sort_uniq compare (List.map (fun v -> v.Ase.v_kind) (vulnerabilities a))
  in
  check "privilege escalation before the update" true
    (List.mem "privilege_escalation" (kinds analysis));
  (* the messenger app is updated with a proper permission check *)
  let fixed = Demo.messenger_app ~guarded:true () in
  let analysis' = reanalyze analysis ~changed:[ fixed ] in
  check "privilege escalation gone after the update" false
    (List.mem "privilege_escalation" (kinds analysis'));
  (* the unchanged app's model was reused, not re-extracted *)
  let nav_model a =
    List.find
      (fun m -> m.App_model.am_package = "com.example.navigation")
      (Bundle.apps a.bundle)
  in
  check "unchanged model reused" true (nav_model analysis == nav_model analysis')

let forwarding_chain_apk () =
  let module B = Builder in
  Apk.make
    ~manifest:
      (Manifest.make ~package:"chain"
         ~uses_permissions:[ Permission.read_phone_state ]
         ~components:
           [
             Component.make ~name:"ChainSrc" ~kind:Component.Activity ();
             Component.make ~name:"ChainFwd" ~kind:Component.Service
               ~intent_filters:[ Intent_filter.make ~actions:[ "chain.a" ] () ]
               ();
             Component.make ~name:"ChainSink" ~kind:Component.Service
               ~intent_filters:[ Intent_filter.make ~actions:[ "chain.b" ] () ]
               ();
           ]
         ())
    ~classes:
      [
        B.cls ~name:"ChainSrc"
          [
            B.meth ~name:"onCreate" ~params:1 (fun b ->
                let v = B.get_device_id b in
                let i = B.new_intent b in
                B.set_action b i "chain.a";
                B.put_extra b i ~key:"k" ~value:v;
                B.start_service b i);
          ];
        B.cls ~name:"ChainFwd"
          [
            B.meth ~name:"onStartCommand" ~params:1 (fun b ->
                let v = B.get_string_extra b 0 ~key:"k" in
                let i = B.new_intent b in
                B.set_action b i "chain.b";
                B.put_extra b i ~key:"k" ~value:v;
                B.start_service b i);
          ];
        B.cls ~name:"ChainSink"
          [
            B.meth ~name:"onStartCommand" ~params:1 (fun b ->
                let v = B.get_string_extra b 0 ~key:"k" in
                B.write_log b ~payload:v);
          ];
      ]

let test_two_hop_leak_detected () =
  let analysis = analyze [ forwarding_chain_apk () ] in
  let two_hop =
    List.filter
      (fun v -> v.Ase.v_kind = "information_leakage_2hop")
      (vulnerabilities analysis)
  in
  (match two_hop with
  | v :: _ ->
      Alcotest.(check (option string))
        "forwarder identified" (Some "ChainFwd")
        (Scenario.witness1 v.Ase.v_scenario "forwarderCmp");
      Alcotest.(check (option string))
        "final sink identified" (Some "ChainSink")
        (Scenario.witness1 v.Ase.v_scenario "finalCmp")
  | [] -> Alcotest.fail "two-hop leak not detected");
  (* the single-hop signature alone cannot see it *)
  check "single-hop signature misses the chain" false
    (List.exists
       (fun v ->
         v.Ase.v_kind = "information_leakage"
         && List.mem "ChainSink" v.Ase.v_components)
       (vulnerabilities analysis))

(* --- parallel analysis, budgets, graceful degradation ---------------------- *)

(* Comparable view of an analysis: kind + description of every scenario,
   in report order. *)
let scenario_keys report =
  List.map
    (fun v -> (v.Ase.v_kind, v.Ase.v_scenario.Scenario.sc_description))
    report.Ase.r_vulnerabilities

let test_parallel_matches_sequential () =
  let models = List.map Extract.extract (demo_apks ()) in
  let bundle = Bundle.of_models models in
  let baseline = Ase.analyze ~jobs:1 bundle in
  check "baseline finds vulnerabilities" true
    (baseline.Ase.r_vulnerabilities <> []);
  List.iter
    (fun jobs ->
      let report = Ase.analyze ~jobs bundle in
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "identical scenario set at -j %d" jobs)
        (scenario_keys baseline) (scenario_keys report);
      check "no degradation" true (report.Ase.r_degraded = []))
    [ 2; 4 ]

let test_incremental_matches_scratch () =
  (* ASE solves every signature on a shared per-config base.  Its
     findings must equal solving each signature from scratch
     ([Ase.run_signature]: fresh encoding, fresh solver) at any pool
     width — byte-for-byte once performance fields are stripped — and
     the sharing must show: less encoding work for signatures 2..N,
     translate-cache hits and reused clauses.  Checked on the demo
     bundle plus a Table I slice, with work summed over the bundles. *)
  let bundles =
    Bundle.of_models (List.map Extract.extract (demo_apks ()))
    :: List.filteri
         (fun i _ -> i < 6)
         (List.map
            (fun c ->
              Bundle.of_models
                (List.map Extract.extract c.Separ_suites.Case.apks))
            (Separ_suites.Table1.all_cases ()))
  in
  let render report =
    Separ_report.Report.to_string ~report:(Ase.strip_performance report)
      ~policies:[] ()
  in
  let tail_work = function [] -> 0 | _ :: rest -> List.fold_left ( + ) 0 rest in
  let reference bundle =
    let bundle = Bundle.update_passive_targets bundle in
    let results =
      List.map
        (fun sig_ -> (sig_.Signatures.name, Ase.run_signature bundle sig_))
        (Signatures.all ())
    in
    let vulns =
      List.concat_map
        (fun (name, sr) ->
          List.map
            (fun sc ->
              {
                Ase.v_kind = name;
                v_scenario = sc;
                v_components = Ase.victim_components bundle sc;
              })
            sr.Ase.sr_scenarios)
        results
    in
    let truncated =
      List.filter_map
        (fun (name, sr) -> if sr.Ase.sr_truncated then Some name else None)
        results
    in
    let stats = List.map (fun (_, sr) -> sr.Ase.sr_stats) results in
    check "reference reuses nothing" true
      (List.for_all
         (fun s ->
           Separ_relog.Solve.(s.reused_clauses = 0 && s.reused_learnts = 0))
         stats);
    let works =
      List.map
        (fun s ->
          Separ_relog.Solve.(s.delta_vars + s.delta_clauses + s.delta_gates))
        stats
    in
    let report =
      {
        Ase.r_stats = Bundle.stats bundle;
        r_vulnerabilities = vulns;
        r_degraded = [];
        r_truncated = truncated;
        r_construction_ms = 0.0;
        r_solving_ms = 0.0;
        r_vars = 0;
        r_clauses = 0;
        r_solver = Separ_sat.Solver.empty_stats;
        r_sig_deltas = [];
        r_cache = [];
      }
    in
    (report, tail_work works)
  in
  let refs = List.map reference bundles in
  check "reference finds vulnerabilities" true
    (List.exists (fun (r, _) -> r.Ase.r_vulnerabilities <> []) refs);
  let ref_tail = List.fold_left (fun acc (_, w) -> acc + w) 0 refs in
  List.iter
    (fun jobs ->
      let reports = List.map (Ase.analyze ~jobs) bundles in
      List.iteri
        (fun i (report, (expected, _)) ->
          check
            (Printf.sprintf "bundle %d vulnerabilities match at -j %d" i jobs)
            true
            (report.Ase.r_vulnerabilities = expected.Ase.r_vulnerabilities);
          Alcotest.(check (list string))
            (Printf.sprintf "bundle %d truncation matches at -j %d" i jobs)
            expected.Ase.r_truncated report.Ase.r_truncated;
          Alcotest.(check string)
            (Printf.sprintf "bundle %d stripped report byte-identical at -j %d"
               i jobs)
            (render expected) (render report))
        (List.combine reports refs);
      let deltas = List.map (fun r -> r.Ase.r_sig_deltas) reports in
      let total f =
        List.fold_left
          (fun acc ds -> List.fold_left (fun acc (_, st) -> acc + f st) acc ds)
          0 deltas
      in
      let shared_tail =
        List.fold_left
          (fun acc ds ->
            acc
            + tail_work
                (List.map
                   (fun (_, st) ->
                     Separ_relog.Solve.(
                       st.delta_vars + st.delta_clauses + st.delta_gates))
                   ds))
          0 deltas
      in
      check
        (Printf.sprintf
           "signatures 2..N encode less than from scratch at -j %d (%d < %d)"
           jobs shared_tail ref_tail)
        true (shared_tail < ref_tail);
      check
        (Printf.sprintf "translation cache is hit at -j %d" jobs)
        true
        (total (fun st -> st.Separ_relog.Solve.cache_hits) > 0);
      check
        (Printf.sprintf "signatures ride on shared clauses at -j %d" jobs)
        true
        (total (fun st -> st.Separ_relog.Solve.reused_clauses) > 0))
    [ 1; 2; 4 ]

let test_budget_degrades_gracefully () =
  let bundle = Bundle.of_models (List.map Extract.extract (demo_apks ())) in
  let baseline = Ase.analyze bundle in
  let vulnerable_kinds =
    List.sort_uniq compare
      (List.map (fun v -> v.Ase.v_kind) baseline.Ase.r_vulnerabilities)
  in
  let budget =
    { Separ_sat.Solver.b_max_conflicts = Some 0; b_max_time_ms = None }
  in
  (* Sequential and parallel runs must both terminate (no hang) with no
     scenarios and the undecided signatures recorded as budget-exhausted.
     Signatures whose encoding is trivially unsat still complete — a
     definitive Unsat costs no budget — so only the signatures that
     needed actual search degrade; that includes every signature that
     found a scenario in the unbudgeted baseline. *)
  List.iter
    (fun jobs ->
      let report = Ase.analyze ~jobs ~budget bundle in
      check_int "no scenarios under a zero budget" 0
        (List.length report.Ase.r_vulnerabilities);
      check "some signatures degraded" true (report.Ase.r_degraded <> []);
      let degraded_kinds = List.map (fun d -> d.Ase.d_kind) report.Ase.r_degraded in
      List.iter
        (fun kind ->
          check
            (Printf.sprintf "baseline-vulnerable %s degraded at -j %d" kind
               jobs)
            true
            (List.mem kind degraded_kinds))
        vulnerable_kinds;
      List.iter
        (fun d -> Alcotest.(check string) "reason" "budget_exhausted"
            d.Ase.d_reason)
        report.Ase.r_degraded)
    [ 1; 2 ]

let test_worker_crash_degrades () =
  let bundle = Bundle.of_models (List.map Extract.extract (demo_apks ())) in
  let crashy =
    { (List.hd (Signatures.all ())) with
      Signatures.name = "crashy";
      formula = (fun _ -> failwith "deliberate crash");
    }
  in
  let signatures = Signatures.all () @ [ crashy ] in
  let report = Ase.analyze ~jobs:2 ~signatures bundle in
  (match report.Ase.r_degraded with
  | [ d ] ->
      Alcotest.(check string) "crashy signature degraded" "crashy"
        d.Ase.d_kind;
      check "reason names the crash" true
        (String.length d.Ase.d_reason >= 14
        && String.sub d.Ase.d_reason 0 14 = "worker_crashed")
  | _ -> Alcotest.fail "expected exactly the crashy signature degraded");
  (* the healthy signatures still produced their scenarios *)
  let healthy = Ase.analyze ~jobs:2 bundle in
  Alcotest.(check (list (pair string string)))
    "healthy signatures unaffected by the crash"
    (scenario_keys healthy) (scenario_keys report)

let test_bundle_sharding_matches_sequential () =
  (* Sharding across bundles (one pool task per bundle, persistent
     workers) must be invisible in the results: stripped reports
     byte-identical to per-bundle -j 1 runs, in bundle order. *)
  let bundles =
    [
      Bundle.of_models (List.map Extract.extract (demo_apks ()));
      Bundle.of_models
        (List.map Extract.extract
           [
             Demo.navigation_app ();
             Demo.messenger_app ();
             Demo.relay_malware ();
           ]);
      Bundle.of_models [ Extract.extract (forwarding_chain_apk ()) ];
    ]
  in
  let render report =
    Separ_report.Report.to_string ~report:(Ase.strip_performance report)
      ~policies:[] ()
  in
  let baseline = List.map (fun b -> render (Ase.analyze ~jobs:1 b)) bundles in
  check "baseline bundles find vulnerabilities" true
    (List.exists (fun s -> s <> "") baseline);
  List.iter
    (fun jobs ->
      let sharded = Ase.analyze_many ~jobs bundles in
      check_int
        (Printf.sprintf "one report per bundle at -j %d" jobs)
        (List.length bundles) (List.length sharded);
      List.iteri
        (fun i report ->
          check
            (Printf.sprintf "bundle %d not degraded at -j %d" i jobs)
            true
            (report.Ase.r_degraded = []);
          Alcotest.(check string)
            (Printf.sprintf
               "bundle %d stripped report byte-identical at -j %d" i jobs)
            (List.nth baseline i) (render report))
        sharded)
    [ 2; 4 ]

let test_one_flat_pool () =
  (* -j 4 over two bundles: two signature shards per bundle, four tasks
     in one pool run — at most four forks (fewer when idle workers are
     left from earlier runs), none of them by a worker: worker metrics
     merge into the parent, so a worker's fork would show in the
     counter on top of the parent's own. *)
  let module Metrics = Separ_obs.Metrics in
  Metrics.enable ();
  Metrics.reset ();
  let bundle apks = Bundle.of_models (List.map Extract.extract apks) in
  ignore
    (Ase.analyze_many ~jobs:4
       [ bundle (demo_apks ()); bundle (demo_apks () @ [ Demo.relay_malware () ]) ]);
  let forks = Metrics.counter_value (Metrics.counter "pool.forks") in
  let stats = Separ_exec.Pool.last_run_stats () in
  check_int "four tasks in one run" 4 stats.Separ_exec.Pool.rs_tasks;
  check "forks across parent and workers <= pool width + respawns" true
    (forks <= 4 + stats.Separ_exec.Pool.rs_respawns);
  check_int "no worker forked: every fork is the parent's"
    stats.Separ_exec.Pool.rs_forks forks;
  Metrics.reset ();
  Metrics.disable ()

let test_truncation_reported () =
  let bundle = Bundle.of_models (List.map Extract.extract (demo_apks ())) in
  let full = Ase.analyze bundle in
  check "full run is not truncated" true (full.Ase.r_truncated = []);
  let capped = Ase.analyze ~limit_per_sig:1 bundle in
  check "a 1-scenario cap truncates some signature" true
    (capped.Ase.r_truncated <> []);
  List.iter
    (fun name ->
      check "truncated names are signature names" true
        (List.exists
           (fun s -> s.Signatures.name = name)
           (Signatures.all ())))
    capped.Ase.r_truncated

let test_two_hop_leak_at_runtime () =
  (* the chain is a real leak: IMEI reaches the log via two hops *)
  let d = Device.create () in
  Device.install d (forwarding_chain_apk ());
  Device.start_component d ~pkg:"chain" ~component:"ChainSrc";
  check "IMEI logged after two hops" true
    (List.exists
       (function
         | Effect.Log_written { taint; _ } -> List.mem Resource.Imei taint
         | _ -> false)
       (Device.effects d))

(* A size guard on the relational translation: on a fixed generated
   10-app bundle, the two-hop leak signature (whose witnesses are pinned
   with [one] over every intent and component) stays linear.  A
   quadratic [lone] encoding builds about 24k gates here. *)
let test_two_hop_translation_size () =
  let module Generator = Separ_workload.Generator in
  let profiles =
    List.map
      (fun p -> { p with Generator.count = p.Generator.count / 40 })
      Generator.default_profiles
  in
  let apps =
    List.hd (Generator.bundles ~size:10 (Generator.generate ~profiles ()))
  in
  let bundle =
    Bundle.of_models
      (List.map (fun g -> Extract.extract g.Generator.apk) apps)
  in
  let report = Ase.analyze ~jobs:1 bundle in
  match List.assoc_opt "information_leakage_2hop" report.Ase.r_sig_deltas with
  | None -> Alcotest.fail "no information_leakage_2hop delta"
  | Some st ->
      let gates = st.Separ_relog.Solve.delta_gates in
      check
        (Printf.sprintf "information_leakage_2hop: %d gates < 5000" gates)
        true (gates < 5000)

(* An identity helper called with the IMEI and with a clean constant;
   only the clean result is sent to a logging service.  k=1 extraction
   keeps the two calls apart; k=0 merges them into a false leak. *)
let context_trap_app () =
  let module B = Builder in
  Apk.make
    ~manifest:
      (Manifest.make ~package:"trap"
         ~uses_permissions:[ Permission.read_phone_state ]
         ~components:
           [
             Component.make ~name:"TrapSrc" ~kind:Component.Activity ();
             Component.make ~name:"TrapSnk" ~kind:Component.Service
               ~intent_filters:
                 [ Separ_android.Intent_filter.make ~actions:[ "trap.go" ] () ]
               ();
           ]
         ())
    ~classes:
      [
        B.cls ~name:"TrapSrc"
          [
            B.meth ~name:"onCreate" ~params:1 (fun b ->
                let v = B.get_device_id b in
                let v' = B.call_result b ~cls:"TrapSrc" ~name:"id" [ v ] in
                B.sput b ~field:"keep" ~src:v';
                let clean = B.const_str b "ok" in
                let w = B.call_result b ~cls:"TrapSrc" ~name:"id" [ clean ] in
                let i = B.new_intent b in
                B.set_action b i "trap.go";
                B.put_extra b i ~key:"k" ~value:w;
                B.start_service b i);
            B.meth ~name:"id" ~params:1 (fun b -> B.return_reg b 0);
          ];
        B.cls ~name:"TrapSnk"
          [
            B.meth ~name:"onStartCommand" ~params:1 (fun b ->
                let v = B.get_string_extra b 0 ~key:"k" in
                B.write_log b ~payload:v);
          ];
      ]

(* The facade takes no extraction or signature knobs: [analyze] and
   [reanalyze] must report exactly what ASE reports when handed
   k1-extracted models and every registered signature explicitly.  The
   trap app tells k=1 from k=0 extraction. *)
let test_facade_defaults () =
  let stripped report =
    Separ_report.Report.to_string ~report:(Ase.strip_performance report)
      ~policies:[] ()
  in
  let explicit ~k1 apks =
    stripped
      (Ase.analyze ~signatures:(Signatures.all ())
         (Bundle.of_models (List.map (Extract.extract ~k1) apks)))
  in
  let trap = [ context_trap_app () ] in
  check "the trap app tells k=1 from k=0" true
    (explicit ~k1:true trap <> explicit ~k1:false trap);
  check "analyze extracts with k=1" true
    (stripped (analyze trap).report = explicit ~k1:true trap);
  let apks = demo_apks () in
  let analysis = analyze apks in
  check "analyze = every signature over k1 models" true
    (stripped analysis.report = explicit ~k1:true apks);
  let guarded = Demo.messenger_app ~guarded:true () in
  let updated = reanalyze analysis ~changed:[ guarded; context_trap_app () ] in
  check "reanalyze = every signature over k1 models" true
    (stripped updated.report
    = explicit ~k1:true
        [ Demo.navigation_app (); guarded; context_trap_app () ])

(* The accounting of a report, pinned: the [solver], [incremental] and
   [cache] sections of the unstripped JSON report and the text of
   [analyze --stats], each as a digest, with every wall-clock field
   masked ([*_ms] keys dropped to null, the timing tail of a --stats row
   cut).  Over the demo trio and the first six Table I cases at -j 1 and
   -j 2, plus a cold and a warm --cache run of the trio, whose hits
   report the zero record. *)
let accounting_pins =
  [
    ( "demo trio -j 1",
      "fd1e2b94d8a85ca26f7ce27628d7948c",
      "b1fbb9df455b0217b006659c99045912" );
    ( "ICC_bindService1 -j 1",
      "dfce96beadd1bd5fdc7b2204f215d6a4",
      "1a1bf99086aae19ee08ded778a27db56" );
    ( "ICC_bindService2 -j 1",
      "64fa565c5ce71664711026972eba31c8",
      "30634f8bf16a2d16538e433ce82d672b" );
    ( "ICC_bindService3 -j 1",
      "dfce96beadd1bd5fdc7b2204f215d6a4",
      "1a1bf99086aae19ee08ded778a27db56" );
    ( "ICC_bindService4 -j 1",
      "722a302547f15214f31e91c68f00fa15",
      "0bf10c1c4dcfd53e4b9396e2c2e063db" );
    ( "ICC_sendBroadcast1 -j 1",
      "e80ef9d582ad3f7cf1d37f062681c015",
      "e7f938220f5fa68c068333fe8af698ce" );
    ( "ICC_startActivity1 -j 1",
      "79f09540d78adabd611bb46fa8dc38eb",
      "bd4da3e584622b4a7e03ff9fa8b6f975" );
    ( "demo trio -j 2",
      "fc94e46bed1ce10d7ba3c4ad5c12f24a",
      "a63ceb8c1a214168e43d66d6b8a7f5fc" );
    ( "ICC_bindService1 -j 2",
      "189e306c62a34cba202bc15c86da3da9",
      "d58ec9ee393013d16e5351e65f43129e" );
    ( "ICC_bindService2 -j 2",
      "5c10ad142b7a9e72a4ed9afc8ae69d17",
      "1b2aefe9a538ee329779afa1620bcd16" );
    ( "ICC_bindService3 -j 2",
      "189e306c62a34cba202bc15c86da3da9",
      "d58ec9ee393013d16e5351e65f43129e" );
    ( "ICC_bindService4 -j 2",
      "a3e00d6a270782a7a4fab9ab72a57e57",
      "d324c25f85f7237c184a067877abe259" );
    ( "ICC_sendBroadcast1 -j 2",
      "a7f6102ea30c98e7d8ff07c65148f4cd",
      "898802c66ab4f9645bb53501730fbdba" );
    ( "ICC_startActivity1 -j 2",
      "f49bccc1cc258a0231dd6999f45bdf20",
      "a5c1521a5da93361a2c8c07d3864669e" );
    ( "demo trio cold cache -j 1",
      "3d87c1808373e29e0912661286efd967",
      "b1fbb9df455b0217b006659c99045912" );
    ( "demo trio warm cache -j 1",
      "46dc09039badabd15650131c9bc342f2",
      "c321f67fedc114533e66612385ae6c92" );
  ]

let accounting_digests report =
  let module Json = Separ_obs.Json in
  let rec mask = function
    | Json.Obj kvs ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               (k, if String.ends_with ~suffix:"_ms" k then Json.Null else mask v))
             kvs)
    | Json.List xs -> Json.List (List.map mask xs)
    | v -> v
  in
  let json = Separ_report.Report.of_analysis ~report ~policies:[] () in
  let sections =
    List.map
      (fun k -> (k, mask (Option.get (Json.member k json))))
      [ "solver"; "incremental"; "cache" ]
  in
  let untimed line =
    match String.index_opt line '(' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let hex s = Digest.to_hex (Digest.string s) in
  ( hex (Json.to_string (Json.Obj sections)),
    hex
      (String.concat "\n"
         (List.map untimed (Separ_report.Report.stats_lines report))) )

let test_accounting_pinned () =
  (* the built-in catalogue: other suites register signatures *)
  let analyze = Ase.analyze ~signatures:Signatures.builtin in
  let bundle apks = Bundle.of_models (List.map Extract.extract apks) in
  let trio =
    bundle [ Demo.navigation_app (); Demo.messenger_app (); Demo.relay_malware () ]
  in
  let cases =
    ("demo trio", trio)
    :: List.filteri
         (fun i _ -> i < 6)
         (List.map
            (fun c -> (c.Separ_suites.Case.name, bundle c.Separ_suites.Case.apks))
            (Separ_suites.Table1.all_cases ()))
  in
  let runs =
    List.concat_map
      (fun jobs ->
        List.map
          (fun (name, b) ->
            (Printf.sprintf "%s -j %d" name jobs, analyze ~jobs b))
          cases)
      [ 1; 2 ]
  in
  let dir = Filename.temp_file "separ_pins" "" in
  Sys.remove dir;
  let cached label =
    (label, analyze ~cache:(Separ.Cache.open_ ~dir ()) trio)
  in
  let cold = cached "demo trio cold cache -j 1" in
  let warm = cached "demo trio warm cache -j 1" in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  List.iter
    (fun (label, report) ->
      let json, text = accounting_digests report in
      match List.find_opt (fun (l, _, _) -> l = label) accounting_pins with
      | None -> Alcotest.failf "no pin for %s" label
      | Some (_, pjson, ptext) ->
          Alcotest.(check string) (label ^ ": JSON accounting") pjson json;
          Alcotest.(check string) (label ^ ": --stats text") ptext text)
    (runs @ [ cold; warm ])

let extension_tests =
  [
    Alcotest.test_case "report accounting pinned" `Quick test_accounting_pinned;
    Alcotest.test_case "incremental reanalysis" `Quick
      test_incremental_reanalysis;
    Alcotest.test_case "two-hop leak detected" `Quick test_two_hop_leak_detected;
    Alcotest.test_case "two-hop leak real at runtime" `Quick
      test_two_hop_leak_at_runtime;
    Alcotest.test_case "parallel analyze matches sequential" `Quick
      test_parallel_matches_sequential;
    Alcotest.test_case "incremental matches from-scratch byte-for-byte" `Quick
      test_incremental_matches_scratch;
    Alcotest.test_case "budget degrades gracefully" `Quick
      test_budget_degrades_gracefully;
    Alcotest.test_case "worker crash degrades its signature" `Quick
      test_worker_crash_degrades;
    Alcotest.test_case "bundle sharding matches sequential" `Quick
      test_bundle_sharding_matches_sequential;
    Alcotest.test_case "one flat pool: no nested forks" `Quick
      test_one_flat_pool;
    Alcotest.test_case "truncation reported" `Quick test_truncation_reported;
    Alcotest.test_case "two-hop translation stays linear" `Quick
      test_two_hop_translation_size;
    Alcotest.test_case "facade runs every signature over k1 models" `Quick
      test_facade_defaults;
  ]

let tests = tests @ extension_tests
