(* Tests for AME, the model extractor: architecture extraction from the
   manifest, multi-value intent expansion, code-enforced permissions,
   passive-intent resolution (Algorithm 1), and extraction metadata. *)

open Separ_android
open Separ_dalvik
open Separ_ame
module B = Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let nav_apk () =
  Apk.make
    ~manifest:
      (Manifest.make ~package:"nav"
         ~uses_permissions:[ Permission.access_fine_location ]
         ~components:
           [ Component.make ~name:"Loc" ~kind:Component.Service () ]
         ())
    ~classes:
      [
        B.cls ~name:"Loc"
          [
            B.meth ~name:"onStartCommand" ~params:1 (fun b ->
                let v = B.get_location b in
                let i = B.new_intent b in
                B.set_action b i "showLoc";
                B.put_extra b i ~key:"loc" ~value:v;
                B.start_service b i);
          ];
      ]

let test_extract_motivating () =
  let model = Extract.extract (nav_apk ()) in
  check "package" true (model.App_model.am_package = "nav");
  check_int "one component" 1 (List.length model.App_model.am_components);
  let c = List.hd model.App_model.am_components in
  check "service kind" true (c.App_model.cm_kind = Component.Service);
  check "private" false c.App_model.cm_public;
  (match c.App_model.cm_intents with
  | [ im ] ->
      Alcotest.(check (option string)) "action" (Some "showLoc") im.App_model.im_action;
      check "extras tainted" true (im.App_model.im_extras = [ Resource.Location ]);
      check "implicit" true (im.App_model.im_target = None)
  | l -> Alcotest.failf "expected 1 intent model, got %d" (List.length l));
  check "path LOCATION->ICC" true
    (List.exists
       (fun p ->
         p.App_model.pm_source = Resource.Location
         && p.App_model.pm_sink = Resource.Icc)
       c.App_model.cm_paths);
  check "uses location permission" true
    (List.mem Permission.access_fine_location c.App_model.cm_uses_permissions)

let test_extraction_metadata () =
  let model = Extract.extract (nav_apk ()) in
  check "size positive" true (model.App_model.am_size > 0);
  check "timed" true (model.App_model.am_extraction_ms >= 0.0)

let test_multivalue_expansion () =
  let apk =
    Apk.make
      ~manifest:
        (Manifest.make ~package:"mv"
           ~components:[ Component.make ~name:"S" ~kind:Component.Service () ]
           ())
      ~classes:
        [
          B.cls ~name:"S"
            [
              B.meth ~name:"onStartCommand" ~params:1 (fun b ->
                  let i = B.new_intent b in
                  let c = B.get_string_extra b 0 ~key:"w" in
                  let els = B.fresh_label b in
                  let fin = B.fresh_label b in
                  B.if_eqz b c els;
                  B.set_action b i "a1";
                  B.goto b fin;
                  B.place_label b els;
                  B.set_action b i "a2";
                  B.place_label b fin;
                  B.start_service b i);
            ];
        ]
  in
  let model = Extract.extract apk in
  let c = List.hd model.App_model.am_components in
  (* one intent model per resolved action value *)
  check_int "two intent models" 2 (List.length c.App_model.cm_intents);
  let actions =
    List.sort compare
      (List.filter_map (fun i -> i.App_model.im_action) c.App_model.cm_intents)
  in
  Alcotest.(check (list string)) "expanded actions" [ "a1"; "a2" ] actions

let guarded_sms_apk guarded =
  Apk.make
    ~manifest:
      (Manifest.make ~package:"sms" ~uses_permissions:[ Permission.send_sms ]
         ~components:
           [
             Component.make ~name:"M" ~kind:Component.Service
               ~intent_filters:[ Intent_filter.make ~actions:[ "send" ] () ]
               ();
           ]
         ())
    ~classes:
      [
        B.cls ~name:"M"
          [
            B.meth ~name:"onStartCommand" ~params:1 (fun b ->
                let n = B.get_string_extra b 0 ~key:"n" in
                if guarded then begin
                  let res = B.check_calling_permission b Permission.send_sms in
                  let deny = B.fresh_label b in
                  B.if_eqz b res deny;
                  B.send_text_message b ~number:n ~body:n;
                  B.place_label b deny
                end
                else B.send_text_message b ~number:n ~body:n);
          ];
      ]

let test_enforced_permission () =
  let unguarded = Extract.extract (guarded_sms_apk false) in
  let cu = List.hd unguarded.App_model.am_components in
  check "unguarded: open path" true
    (List.exists
       (fun p -> p.App_model.pm_sink = Resource.Sms)
       cu.App_model.cm_paths);
  check "unguarded: nothing enforced" true
    (cu.App_model.cm_required_permissions = []);
  let guarded = Extract.extract (guarded_sms_apk true) in
  let cg = List.hd guarded.App_model.am_components in
  check "guarded: path suppressed" false
    (List.exists
       (fun p -> p.App_model.pm_sink = Resource.Sms)
       cg.App_model.cm_paths);
  check "guarded: permission recorded as enforced" true
    (List.mem Permission.send_sms cg.App_model.cm_required_permissions)

let test_manifest_permission_attr () =
  let apk =
    Apk.make
      ~manifest:
        (Manifest.make ~package:"p"
           ~components:
             [
               Component.make ~name:"S" ~kind:Component.Service
                 ~permission:Permission.send_sms ();
             ]
           ())
      ~classes:[ B.cls ~name:"S" [] ]
  in
  let model = Extract.extract apk in
  let c = List.hd model.App_model.am_components in
  check "manifest permission kept" true
    (List.mem Permission.send_sms c.App_model.cm_required_permissions)

(* --- Algorithm 1: passive intents ------------------------------------------- *)

let for_result_bundle () =
  let apk =
    Apk.make
      ~manifest:
        (Manifest.make ~package:"fr"
           ~uses_permissions:[ Permission.read_phone_state ]
           ~components:
             [
               Component.make ~name:"Origin" ~kind:Component.Activity ();
               Component.make ~name:"Responder" ~kind:Component.Activity
                 ~intent_filters:[ Intent_filter.make ~actions:[ "req" ] () ]
                 ();
             ]
           ())
      ~classes:
        [
          B.cls ~name:"Origin"
            [
              B.meth ~name:"onCreate" ~params:1 (fun b ->
                  let i = B.new_intent b in
                  B.set_action b i "req";
                  B.start_activity_for_result b i);
              B.meth ~name:"onActivityResult" ~params:1 (fun b ->
                  let v = B.get_string_extra b 0 ~key:"out" in
                  B.write_log b ~payload:v);
            ];
          B.cls ~name:"Responder"
            [
              B.meth ~name:"onCreate" ~params:1 (fun b ->
                  let v = B.get_device_id b in
                  let i = B.new_intent b in
                  B.put_extra b i ~key:"out" ~value:v;
                  B.set_result b i);
            ];
        ]
  in
  Bundle.of_models [ Extract.extract apk ]

let test_passive_intent_resolution () =
  let bundle = for_result_bundle () in
  let passive_before =
    List.filter (fun (_, _, i) -> i.App_model.im_passive) (Bundle.all_intents bundle)
  in
  check_int "one passive intent" 1 (List.length passive_before);
  let (_, _, p0) = List.hd passive_before in
  Alcotest.(check (list string)) "unresolved before Algorithm 1" []
    p0.App_model.im_resolved_targets;
  let bundle = Bundle.update_passive_targets bundle in
  let passive =
    List.filter (fun (_, _, i) -> i.App_model.im_passive) (Bundle.all_intents bundle)
  in
  let (_, _, p) = List.hd passive in
  Alcotest.(check (list string))
    "resolved to the requesting component" [ "Origin" ]
    p.App_model.im_resolved_targets

let test_bundle_stats () =
  let bundle = for_result_bundle () in
  let st = Bundle.stats bundle in
  check_int "apps" 1 st.Bundle.n_apps;
  check_int "components" 2 st.Bundle.n_components;
  check_int "filters" 1 st.Bundle.n_intent_filters;
  check "intents counted" true (st.Bundle.n_intents >= 2)

let test_resolves_to () =
  let bundle = for_result_bundle () in
  let find name =
    match Bundle.find_component bundle name with
    | Some (_, c) -> c
    | None -> Alcotest.failf "missing component %s" name
  in
  let responder = find "Responder" in
  let origin = find "Origin" in
  let request =
    List.find
      (fun (_, _, i) -> i.App_model.im_wants_result)
      (Bundle.all_intents bundle)
    |> fun (_, _, i) -> i
  in
  check "request resolves to Responder" true
    (Bundle.resolves_to request responder);
  check "request does not resolve to Origin" false
    (Bundle.resolves_to request origin)

(* --- fixpoint round cap ------------------------------------------------------ *)

module Metrics = Separ_obs.Metrics
module Log = Separ_obs.Log
module Json = Separ_obs.Json

(* A service whose entry point starts a chain of [depth] internal calls;
   only the last method sends an intent.  Each fixpoint round reaches one
   call deeper. *)
let chain_apk depth =
  let link i =
    B.meth ~name:(Printf.sprintf "m%d" i) ~params:1 (fun b ->
        if i < depth then
          B.call b ~cls:"Deep" ~name:(Printf.sprintf "m%d" (i + 1)) [ 0 ]
        else
          let it = B.new_intent b in
          B.set_action b it "deep";
          B.start_service b it)
  in
  Apk.make
    ~manifest:
      (Manifest.make ~package:"chain"
         ~components:[ Component.make ~name:"Deep" ~kind:Component.Service () ]
         ())
    ~classes:
      [
        B.cls ~name:"Deep"
          (B.meth ~name:"onStartCommand" ~params:1 (fun b ->
               B.call b ~cls:"Deep" ~name:"m1" [ 0 ])
          :: List.init depth (fun i -> link (i + 1)));
      ]

(* Extract with metrics and a log sink on; returns the model, the
   [ame.fixpoint_capped] count and the [ame.fixpoint_capped] events as
   (package, component) pairs. *)
let extract_observed apk =
  let path = Filename.temp_file "separ_test_fixpoint" ".ndjson" in
  Metrics.enable ();
  Metrics.reset ();
  Log.to_file path;
  Log.reset ();
  Fun.protect
    ~finally:(fun () ->
      Log.close ();
      Log.reset ();
      Metrics.reset ();
      Metrics.disable ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let model = Extract.extract apk in
      let capped =
        Metrics.counter_value (Metrics.counter "ame.fixpoint_capped")
      in
      Log.close ();
      let str key j = Option.bind (Json.member key j) Json.to_str in
      let warnings =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.filter_map (fun l ->
               let j = Json.parse l in
               if str "event" j = Some "ame.fixpoint_capped" then
                 Some (str "package" j, str "component" j)
               else None)
      in
      (model, capped, warnings))

let test_fixpoint_cap_reported () =
  let sends_deep (model : App_model.t) =
    List.exists
      (fun i -> i.App_model.im_action = Some "deep")
      (App_model.all_intents model)
  in
  let shallow, capped, warnings = extract_observed (chain_apk 20) in
  check_int "20-deep chain converges" 0 capped;
  check_int "no warning for the 20-deep chain" 0 (List.length warnings);
  check "20-deep chain: deepest intent found" true (sends_deep shallow);
  let deep, capped, warnings = extract_observed (chain_apk 120) in
  check_int "120-deep chain hits the cap" 1 capped;
  check "one warning naming package and component" true
    (warnings = [ (Some "chain", Some "Deep") ]);
  check "capped: deepest intent missing" false (sends_deep deep)

(* --- pinned output ----------------------------------------------------------- *)

(* The extracted models of every Table I case app and the first 200 apps
   of the seed-2016 corpus, digested.  Extraction times are zeroed and the
   marshalling ignores sharing, so the digest moves only when what AME
   extracts changes; a deliberate change must update the digest.  No
   cache version needs a bump: models are not cached, and ASE cache
   keys are computed over the encoded problem, which such a change
   moves. *)
let pinned_models_digest = "34056cfc5da5e658d96da1c392634f64"

let pinned_corpus () =
  let table1_apks =
    List.concat_map
      (fun (c : Separ_suites.Case.t) -> c.Separ_suites.Case.apks)
      (Separ_suites.Table1.all_cases ())
  in
  (* Generation is sequential from one seeded stream, so the first
     profile cut to 200 apps yields the corpus's first 200 apps. *)
  let corpus_apks =
    let module G = Separ_workload.Generator in
    let first = { (List.hd G.default_profiles) with G.count = 200 } in
    G.generate ~seed:2016 ~profiles:[ first ] ()
    |> List.map (fun (g : G.generated) -> g.G.apk)
  in
  table1_apks @ corpus_apks

let test_pinned_output () =
  let models =
    List.map
      (fun apk ->
        { (Extract.extract apk) with App_model.am_extraction_ms = 0.0 })
      (pinned_corpus ())
  in
  Alcotest.(check string)
    "AME output digest" pinned_models_digest
    (Digest.to_hex
       (Digest.string (Marshal.to_string models [ Marshal.No_sharing ])))

(* Minor words allocated per instruction while extracting the pinned
   corpus.  The count is deterministic in one domain.  The block-level
   fixpoint with a dense frame per block measured 35.5 words per
   instruction; the instruction-level fixpoint it replaced, which kept a
   persistent register map per instruction, measured 162.6.  The budget
   sits halfway, so it fails if the per-instruction states come back. *)
let words_per_instr_budget = 99.0

let test_allocation_budget () =
  let apks = pinned_corpus () in
  let instrs = List.fold_left (fun acc apk -> acc + Apk.size apk) 0 apks in
  let before = Gc.minor_words () in
  List.iter (fun apk -> ignore (Extract.extract apk)) apks;
  let per_instr = (Gc.minor_words () -. before) /. float_of_int instrs in
  if per_instr > words_per_instr_budget then
    Alcotest.failf "%.1f minor words per instruction, budget %.1f" per_instr
      words_per_instr_budget

let tests =
  [
    Alcotest.test_case "motivating example model" `Quick test_extract_motivating;
    Alcotest.test_case "extraction metadata" `Quick test_extraction_metadata;
    Alcotest.test_case "multi-value expansion" `Quick test_multivalue_expansion;
    Alcotest.test_case "code-enforced permission" `Quick test_enforced_permission;
    Alcotest.test_case "manifest permission attribute" `Quick
      test_manifest_permission_attr;
    Alcotest.test_case "Algorithm 1 passive intents" `Quick
      test_passive_intent_resolution;
    Alcotest.test_case "bundle stats" `Quick test_bundle_stats;
    Alcotest.test_case "resolves_to" `Quick test_resolves_to;
    Alcotest.test_case "fixpoint round cap reported" `Quick
      test_fixpoint_cap_reported;
    Alcotest.test_case "pinned output digest" `Quick test_pinned_output;
    Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
  ]
