(* Tests for the simulated runtime and APE: the interpreter, intent
   dispatch (explicit / implicit / broadcast / dynamic receivers /
   result round trips), permission gates, enforcement decisions, and the
   attack concretizer. *)

open Separ_android
open Separ_dalvik
open Separ_runtime
module B = Builder
module Policy = Separ_policy.Policy

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let one_class_apk ~pkg ?(perms = []) ?(components = []) classes =
  Apk.make
    ~manifest:(Manifest.make ~package:pkg ~uses_permissions:perms ~components ())
    ~classes

let logs effects =
  List.filter_map
    (function Effect.Log_written { line; taint; _ } -> Some (line, taint) | _ -> None)
    effects

(* --- interpreter --------------------------------------------------------------- *)

let test_interp_basics () =
  let apk =
    one_class_apk ~pkg:"p"
      ~components:[ Component.make ~name:"C" ~kind:Component.Activity () ]
      [
        B.cls ~name:"C"
          [
            B.meth ~name:"onCreate" ~params:1 (fun b ->
                (* branch on a null: else path taken *)
                let v = B.const_str b "x" in
                let els = B.fresh_label b in
                let fin = B.fresh_label b in
                B.if_eqz b v els;
                let a = B.const_str b "truthy" in
                B.write_log b ~payload:a;
                B.goto b fin;
                B.place_label b els;
                let c = B.const_str b "falsy" in
                B.write_log b ~payload:c;
                B.place_label b fin);
          ];
      ]
  in
  let d = Device.create () in
  Device.install d apk;
  Device.start_component d ~pkg:"p" ~component:"C";
  match logs (Device.effects d) with
  | [ ("truthy", []) ] -> ()
  | l -> Alcotest.failf "unexpected logs (%d)" (List.length l)

let test_interp_fields_and_calls () =
  let apk =
    one_class_apk ~pkg:"p" ~perms:[ Permission.read_phone_state ]
      ~components:[ Component.make ~name:"C" ~kind:Component.Activity () ]
      [
        B.cls ~name:"C"
          [
            B.meth ~name:"onCreate" ~params:1 (fun b ->
                let v = B.get_device_id b in
                B.sput b ~field:"f" ~src:v;
                B.call b ~cls:"C" ~name:"flush" []);
            B.meth ~name:"flush" ~params:0 (fun b ->
                let v = B.sget b ~field:"f" in
                B.write_log b ~payload:v);
          ];
      ]
  in
  let d = Device.create () in
  Device.install d apk;
  Device.start_component d ~pkg:"p" ~component:"C";
  match logs (Device.effects d) with
  | [ (_, taint) ] -> check "field+call taint" true (taint = [ Resource.Imei ])
  | _ -> Alcotest.fail "expected one log"

let test_interp_infinite_loop_bounded () =
  let apk =
    one_class_apk ~pkg:"p"
      ~components:[ Component.make ~name:"C" ~kind:Component.Activity () ]
      [
        B.cls ~name:"C"
          [
            B.meth ~name:"onCreate" ~params:1 (fun b ->
                let top = B.fresh_label b in
                B.place_label b top;
                B.goto b top);
          ];
      ]
  in
  let d = Device.create () in
  Device.install d apk;
  (* must terminate via fuel exhaustion *)
  Device.start_component d ~pkg:"p" ~component:"C";
  check "survived infinite loop" true true

let test_permission_refused () =
  let apk =
    one_class_apk ~pkg:"p" (* no permissions *)
      ~components:[ Component.make ~name:"C" ~kind:Component.Activity () ]
      [
        B.cls ~name:"C"
          [
            B.meth ~name:"onCreate" ~params:1 (fun b ->
                let v = B.get_location b in
                B.write_log b ~payload:v);
          ];
      ]
  in
  let d = Device.create () in
  Device.install d apk;
  Device.start_component d ~pkg:"p" ~component:"C";
  check "source refused" true
    (List.exists
       (function Effect.Permission_refused _ -> true | _ -> false)
       (Device.effects d))

(* --- dispatch ------------------------------------------------------------------- *)

let sender_receiver_apks ~explicit ~receiver_perm =
  let sender =
    one_class_apk ~pkg:"s" ~perms:[ Permission.read_phone_state ]
      ~components:[ Component.make ~name:"Snd" ~kind:Component.Activity () ]
      [
        B.cls ~name:"Snd"
          [
            B.meth ~name:"onCreate" ~params:1 (fun b ->
                let v = B.get_device_id b in
                let i = B.new_intent b in
                if explicit then B.set_class_name b i "Rcv"
                else B.set_action b i "evt";
                B.put_extra b i ~key:"k" ~value:v;
                B.start_service b i);
          ];
      ]
  in
  let receiver =
    one_class_apk ~pkg:"r"
      ~components:
        [
          Component.make ~name:"Rcv" ~kind:Component.Service
            ?permission:receiver_perm
            ~intent_filters:
              (if explicit then [] else [ Intent_filter.make ~actions:[ "evt" ] () ])
            ~exported:true ();
        ]
      [
        B.cls ~name:"Rcv"
          [
            B.meth ~name:"onStartCommand" ~params:1 (fun b ->
                let v = B.get_string_extra b 0 ~key:"k" in
                B.write_log b ~payload:v);
          ];
      ]
  in
  (sender, receiver)

let run_pair ?(enforce = None) (sender, receiver) =
  let d = Device.create () in
  Device.install d sender;
  Device.install d receiver;
  (match enforce with
  | Some policies ->
      Device.set_policies d policies [ "s"; "r" ];
      Device.set_enforcement d true
  | None -> ());
  Device.start_component d ~pkg:"s" ~component:"Snd";
  Device.effects d

let test_dispatch_implicit () =
  let effects = run_pair (sender_receiver_apks ~explicit:false ~receiver_perm:None) in
  check "delivered and leaked" true
    (List.exists (fun (_, t) -> t = [ Resource.Imei ]) (logs effects))

let test_dispatch_explicit () =
  let effects = run_pair (sender_receiver_apks ~explicit:true ~receiver_perm:None) in
  check "explicit delivery" true
    (List.exists (fun (_, t) -> t = [ Resource.Imei ]) (logs effects))

let test_dispatch_permission_gate () =
  let effects =
    run_pair
      (sender_receiver_apks ~explicit:false
         ~receiver_perm:(Some Permission.send_sms))
  in
  check "delivery refused by component permission" true
    (List.exists
       (function Effect.Permission_refused _ -> true | _ -> false)
       effects);
  check "no leak" true (logs effects = [])

let test_no_receiver () =
  let sender, _ = sender_receiver_apks ~explicit:false ~receiver_perm:None in
  let d = Device.create () in
  Device.install d sender;
  Device.start_component d ~pkg:"s" ~component:"Snd";
  check "no-receiver effect" true
    (List.exists
       (function Effect.No_receiver _ -> true | _ -> false)
       (Device.effects d))

let test_broadcast_fanout () =
  let sender =
    one_class_apk ~pkg:"s"
      ~components:[ Component.make ~name:"Snd" ~kind:Component.Activity () ]
      [
        B.cls ~name:"Snd"
          [
            B.meth ~name:"onCreate" ~params:1 (fun b ->
                let i = B.new_intent b in
                B.set_action b i "evt";
                let v = B.const_str b "x" in
                B.put_extra b i ~key:"k" ~value:v;
                B.send_broadcast b i);
          ];
      ]
  in
  let receiver pkg name =
    one_class_apk ~pkg
      ~components:
        [
          Component.make ~name ~kind:Component.Receiver
            ~intent_filters:[ Intent_filter.make ~actions:[ "evt" ] () ]
            ();
        ]
      [
        B.cls ~name
          [
            B.meth ~name:"onReceive" ~params:1 (fun b ->
                let v = B.get_string_extra b 0 ~key:"k" in
                B.write_log b ~payload:v);
          ];
      ]
  in
  let d = Device.create () in
  Device.install d sender;
  Device.install d (receiver "r1" "R1");
  Device.install d (receiver "r2" "R2");
  Device.start_component d ~pkg:"s" ~component:"Snd";
  check_int "both receivers got it" 2 (List.length (logs (Device.effects d)))

let test_newest_wins_hijack_order () =
  (* two matching services: the most recently installed receives *)
  let sender, legit = sender_receiver_apks ~explicit:false ~receiver_perm:None in
  let thief =
    one_class_apk ~pkg:"thief"
      ~components:
        [
          Component.make ~name:"Thief" ~kind:Component.Service
            ~intent_filters:[ Intent_filter.make ~actions:[ "evt" ] () ]
            ();
        ]
      [
        B.cls ~name:"Thief"
          [
            B.meth ~name:"onStartCommand" ~params:1 (fun b ->
                let v = B.get_all_extras b 0 in
                B.write_log b ~payload:v);
          ];
      ]
  in
  let d = Device.create () in
  Device.install d sender;
  Device.install d legit;
  Device.install d thief;
  Device.start_component d ~pkg:"s" ~component:"Snd";
  check "thief (installed last) received" true
    (List.exists
       (function
         | Effect.Intent_delivered { receiver = "Thief"; _ } -> true
         | _ -> false)
       (Device.effects d))

let test_dynamic_receiver_dispatch () =
  let registrar =
    one_class_apk ~pkg:"dyn"
      ~components:
        [
          Component.make ~name:"Reg" ~kind:Component.Activity ();
          Component.make ~name:"DynR" ~kind:Component.Receiver ~exported:false ();
        ]
      [
        B.cls ~name:"Reg"
          [
            B.meth ~name:"onCreate" ~params:1 (fun b ->
                let i = B.new_intent b in
                B.set_class_name b i "DynR";
                B.set_action b i "evt";
                B.register_receiver b i);
          ];
        B.cls ~name:"DynR"
          [
            B.meth ~name:"onReceive" ~params:1 (fun b ->
                let v = B.get_string_extra b 0 ~key:"k" in
                B.write_log b ~payload:v);
          ];
      ]
  in
  let sender =
    one_class_apk ~pkg:"s2"
      ~components:[ Component.make ~name:"Snd2" ~kind:Component.Activity () ]
      [
        B.cls ~name:"Snd2"
          [
            B.meth ~name:"onCreate" ~params:1 (fun b ->
                let i = B.new_intent b in
                B.set_action b i "evt";
                let v = B.const_str b "payload" in
                B.put_extra b i ~key:"k" ~value:v;
                B.send_broadcast b i);
          ];
      ]
  in
  let d = Device.create () in
  Device.install d registrar;
  Device.install d sender;
  (* before registration: nothing receives *)
  Device.start_component d ~pkg:"s2" ~component:"Snd2";
  check "unregistered: no delivery" true (logs (Device.effects d) = []);
  Device.clear_effects d;
  Device.start_component d ~pkg:"dyn" ~component:"Reg";
  Device.start_component d ~pkg:"s2" ~component:"Snd2";
  check "registered: delivered" true
    (List.exists (fun (l, _) -> l = "payload") (logs (Device.effects d)))

let test_set_result_roundtrip () =
  let apk =
    one_class_apk ~pkg:"fr" ~perms:[ Permission.read_phone_state ]
      ~components:
        [
          Component.make ~name:"Origin" ~kind:Component.Activity ();
          Component.make ~name:"Resp" ~kind:Component.Activity
            ~intent_filters:[ Intent_filter.make ~actions:[ "req" ] () ]
            ();
        ]
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
        B.cls ~name:"Resp"
          [
            B.meth ~name:"onCreate" ~params:1 (fun b ->
                let v = B.get_device_id b in
                let i = B.new_intent b in
                B.put_extra b i ~key:"out" ~value:v;
                B.set_result b i);
          ];
      ]
  in
  let d = Device.create () in
  Device.install d apk;
  Device.start_component d ~pkg:"fr" ~component:"Origin";
  check "result leaked back" true
    (List.exists (fun (_, t) -> t = [ Resource.Imei ]) (logs (Device.effects d)))

(* --- enforcement ----------------------------------------------------------------- *)

let block_policy =
  Policy.
    {
      p_id = "block-rcv";
      p_event = Icc_receive;
      p_conditions = [ Receiver_is "Rcv" ];
      p_action = Deny;
      p_reason = "test";
    }

let test_enforcement_deny () =
  let effects =
    run_pair ~enforce:(Some [ block_policy ])
      (sender_receiver_apks ~explicit:false ~receiver_perm:None)
  in
  check "blocked" true (List.exists Effect.is_blocked effects);
  check "no leak" true (logs effects = [])

let test_enforcement_prompt_consent () =
  let prompt = { block_policy with Policy.p_action = Policy.Prompt } in
  let pair = sender_receiver_apks ~explicit:false ~receiver_perm:None in
  (* default consent refuses *)
  let refused = run_pair ~enforce:(Some [ prompt ]) pair in
  check "refused blocks" true (List.exists Effect.is_blocked refused);
  (* approving lets it through *)
  let d = Device.create () in
  let sender, receiver = pair in
  Device.install d sender;
  Device.install d receiver;
  Device.set_policies d [ prompt ] [ "s"; "r" ];
  Device.set_enforcement d true;
  Device.set_consent d (fun _ _ -> true);
  Device.start_component d ~pkg:"s" ~component:"Snd";
  check "approved delivers" true (logs (Device.effects d) <> [])

let test_enforcement_off_by_default () =
  let d = Device.create () in
  let sender, receiver = sender_receiver_apks ~explicit:false ~receiver_perm:None in
  Device.install d sender;
  Device.install d receiver;
  Device.set_policies d [ block_policy ] [ "s"; "r" ];
  (* enforcement not enabled: policy ignored *)
  Device.start_component d ~pkg:"s" ~component:"Snd";
  check "not blocked" false (List.exists Effect.is_blocked (Device.effects d))

let test_inject_intent () =
  let _, receiver = sender_receiver_apks ~explicit:false ~receiver_perm:None in
  let d = Device.create () in
  Device.install d receiver;
  Device.inject_intent d
    (Intent.make ~action:"evt"
       ~extras:[ Intent.{ key = "k"; value = "boo"; taint = [] } ]
       ());
  check "injected intent delivered" true
    (List.exists (fun (l, _) -> l = "boo") (logs (Device.effects d)))

(* --- attack concretizer ------------------------------------------------------------ *)

let test_concretize_and_block () =
  let apks = [ Separ.Demo.navigation_app (); Separ.Demo.messenger_app () ] in
  let analysis = Separ.analyze apks in
  let privesc =
    List.find
      (fun v -> v.Separ_ase.Ase.v_kind = "privilege_escalation")
      analysis.Separ.report.Separ_ase.Ase.r_vulnerabilities
  in
  let bundle = Separ.Bundle.update_passive_targets analysis.Separ.bundle in
  match Attack.concretize bundle privesc.Separ_ase.Ase.v_scenario with
  | None -> Alcotest.fail "expected an attack app"
  | Some mal ->
      (* undefended: the victim sends the SMS on the attacker's behalf *)
      let d = Device.create () in
      List.iter (Device.install d) apks;
      Device.install d mal;
      Attack.trigger d;
      check "sms sent by victim app" true
        (List.exists
           (function
             | Effect.Sms_sent { app = "com.example.messenger"; _ } -> true
             | _ -> false)
           (Device.effects d));
      (* defended: blocked *)
      let d2 = Device.create () in
      List.iter (Device.install d2) apks;
      Device.install d2 mal;
      Separ.protect d2 analysis;
      Attack.trigger d2;
      check "attack blocked" true
        (List.exists Effect.is_blocked (Device.effects d2));
      check "no sms" false
        (List.exists
           (function Effect.Sms_sent _ -> true | _ -> false)
           (Device.effects d2))

let tests =
  [
    Alcotest.test_case "interpreter basics" `Quick test_interp_basics;
    Alcotest.test_case "fields and calls" `Quick test_interp_fields_and_calls;
    Alcotest.test_case "infinite loop bounded" `Quick
      test_interp_infinite_loop_bounded;
    Alcotest.test_case "source permission refused" `Quick test_permission_refused;
    Alcotest.test_case "dispatch implicit" `Quick test_dispatch_implicit;
    Alcotest.test_case "dispatch explicit" `Quick test_dispatch_explicit;
    Alcotest.test_case "component permission gate" `Quick
      test_dispatch_permission_gate;
    Alcotest.test_case "no receiver" `Quick test_no_receiver;
    Alcotest.test_case "broadcast fan-out" `Quick test_broadcast_fanout;
    Alcotest.test_case "newest install wins" `Quick test_newest_wins_hijack_order;
    Alcotest.test_case "dynamic receiver dispatch" `Quick
      test_dynamic_receiver_dispatch;
    Alcotest.test_case "setResult round trip" `Quick test_set_result_roundtrip;
    Alcotest.test_case "enforcement deny" `Quick test_enforcement_deny;
    Alcotest.test_case "enforcement prompt/consent" `Quick
      test_enforcement_prompt_consent;
    Alcotest.test_case "enforcement off by default" `Quick
      test_enforcement_off_by_default;
    Alcotest.test_case "inject intent" `Quick test_inject_intent;
    Alcotest.test_case "concretized attack blocked" `Quick
      test_concretize_and_block;
  ]

(* --- ordered broadcasts: priority and abort ----------------------------------- *)

let sms_broadcast_apps ~thief_priority ~thief_aborts =
  let system =
    one_class_apk ~pkg:"sys" ~perms:[ Permission.read_sms ]
      ~components:[ Component.make ~name:"SmsDeliverer" ~kind:Component.Activity () ]
      [
        B.cls ~name:"SmsDeliverer"
          [
            B.meth ~name:"onCreate" ~params:1 (fun b ->
                let v = B.invoke_result b (Api.mref Api.c_sms_reader "getInbox") [] in
                let i = B.new_intent b in
                B.set_action b i "android.provider.SMS_RECEIVED";
                B.put_extra b i ~key:"pdu" ~value:v;
                B.send_broadcast b i);
          ];
      ]
  in
  let inbox =
    one_class_apk ~pkg:"inbox"
      ~components:
        [
          Component.make ~name:"Inbox" ~kind:Component.Receiver
            ~intent_filters:
              [
                Intent_filter.make
                  ~actions:[ "android.provider.SMS_RECEIVED" ]
                  ~priority:0 ();
              ]
            ();
        ]
      [
        B.cls ~name:"Inbox"
          [
            B.meth ~name:"onReceive" ~params:1 (fun b ->
                let v = B.get_string_extra b 0 ~key:"pdu" in
                B.invoke b (Api.mref Api.c_notification "notify") [ v ]);
          ];
      ]
  in
  let thief =
    one_class_apk ~pkg:"thief"
      ~components:
        [
          Component.make ~name:"SmsThief" ~kind:Component.Receiver
            ~intent_filters:
              [
                Intent_filter.make
                  ~actions:[ "android.provider.SMS_RECEIVED" ]
                  ~priority:thief_priority ();
              ]
            ();
        ]
      [
        B.cls ~name:"SmsThief"
          [
            B.meth ~name:"onReceive" ~params:1 (fun b ->
                let v = B.get_string_extra b 0 ~key:"pdu" in
                B.write_log b ~payload:v;
                if thief_aborts then B.abort_broadcast b);
          ];
      ]
  in
  (system, inbox, thief)

let run_sms_scenario ~thief_priority ~thief_aborts =
  let system, inbox, thief = sms_broadcast_apps ~thief_priority ~thief_aborts in
  let d = Device.create () in
  Device.install d system;
  Device.install d inbox;
  Device.install d thief;
  Device.start_component d ~pkg:"sys" ~component:"SmsDeliverer";
  Device.effects d

let inbox_got effects =
  List.exists
    (function
      | Effect.Notification_shown { app = "inbox"; _ } -> true
      | _ -> false)
    effects

let thief_got effects =
  List.exists
    (function
      | Effect.Log_written { app = "thief"; taint; _ } ->
          List.mem Resource.Sms_inbox taint
      | _ -> false)
    effects

let test_ordered_broadcast_fanout () =
  (* without abort, both receivers see the SMS *)
  let effects = run_sms_scenario ~thief_priority:999 ~thief_aborts:false in
  check "thief sniffed" true (thief_got effects);
  check "inbox still delivered" true (inbox_got effects)

let test_ordered_broadcast_interception () =
  (* the classic SMS-stealing malware: high priority + abortBroadcast *)
  let effects = run_sms_scenario ~thief_priority:999 ~thief_aborts:true in
  check "thief intercepted the SMS" true (thief_got effects);
  check "inbox never saw it" false (inbox_got effects)

let test_ordered_broadcast_low_priority_abort_is_late () =
  (* a low-priority abort cannot hide the SMS from the real inbox *)
  let effects = run_sms_scenario ~thief_priority:(-10) ~thief_aborts:true in
  check "inbox delivered first" true (inbox_got effects)

let ordered_tests =
  [
    Alcotest.test_case "ordered broadcast fan-out" `Quick
      test_ordered_broadcast_fanout;
    Alcotest.test_case "SMS interception (priority + abort)" `Quick
      test_ordered_broadcast_interception;
    Alcotest.test_case "low-priority abort is late" `Quick
      test_ordered_broadcast_low_priority_abort_is_late;
  ]

let tests = tests @ ordered_tests

(* --- explicit addressing respects export across apps --------------------------- *)

let test_explicit_private_cross_app () =
  let sender =
    one_class_apk ~pkg:"xs"
      ~components:[ Component.make ~name:"XSnd" ~kind:Component.Activity () ]
      [
        B.cls ~name:"XSnd"
          [
            B.meth ~name:"onCreate" ~params:1 (fun b ->
                let i = B.new_intent b in
                B.set_class_name b i "Hidden";
                let v = B.const_str b "probe" in
                B.put_extra b i ~key:"k" ~value:v;
                B.start_service b i);
          ];
      ]
  in
  let victim ~exported =
    one_class_apk ~pkg:"xv"
      ~components:
        [ Component.make ~name:"Hidden" ~kind:Component.Service ~exported () ]
      [
        B.cls ~name:"Hidden"
          [
            B.meth ~name:"onStartCommand" ~params:1 (fun b ->
                let v = B.get_string_extra b 0 ~key:"k" in
                B.write_log b ~payload:v);
          ];
      ]
  in
  let run ~exported =
    let d = Device.create () in
    Device.install d sender;
    Device.install d (victim ~exported);
    Device.start_component d ~pkg:"xs" ~component:"XSnd";
    logs (Device.effects d) <> []
  in
  check "private component unreachable from another app" false
    (run ~exported:false);
  check "exported component reachable" true (run ~exported:true)

let test_explicit_private_same_app () =
  (* within one app, explicit intents reach private components *)
  let apk =
    one_class_apk ~pkg:"same"
      ~components:
        [
          Component.make ~name:"SSnd" ~kind:Component.Activity ();
          Component.make ~name:"SPriv" ~kind:Component.Service ~exported:false ();
        ]
      [
        B.cls ~name:"SSnd"
          [
            B.meth ~name:"onCreate" ~params:1 (fun b ->
                let i = B.new_intent b in
                B.set_class_name b i "SPriv";
                let v = B.const_str b "internal" in
                B.put_extra b i ~key:"k" ~value:v;
                B.start_service b i);
          ];
        B.cls ~name:"SPriv"
          [
            B.meth ~name:"onStartCommand" ~params:1 (fun b ->
                let v = B.get_string_extra b 0 ~key:"k" in
                B.write_log b ~payload:v);
          ];
      ]
  in
  let d = Device.create () in
  Device.install d apk;
  Device.start_component d ~pkg:"same" ~component:"SSnd";
  check "intra-app explicit delivery to private component" true
    (logs (Device.effects d) <> [])

let export_tests =
  [
    Alcotest.test_case "explicit cross-app respects export" `Quick
      test_explicit_private_cross_app;
    Alcotest.test_case "explicit intra-app reaches private" `Quick
      test_explicit_private_same_app;
  ]

let tests = tests @ export_tests

(* --- concretized attacks satisfy data-constrained filters ------------------------ *)

let test_concretize_data_constrained () =
  let module B = Builder in
  let victim =
    one_class_apk ~pkg:"dc" ~perms:[]
      ~components:
        [
          Component.make ~name:"DataGate" ~kind:Component.Service
            ~intent_filters:
              [
                Intent_filter.make ~actions:[ "dc.open" ]
                  ~data_schemes:[ "content" ] ~data_hosts:[ "dc.store" ] ();
              ]
            ();
        ]
      [
        B.cls ~name:"DataGate"
          [
            B.meth ~name:"onStartCommand" ~params:1 (fun b ->
                let v = B.get_string_extra b 0 ~key:"cmd" in
                B.write_log b ~payload:v);
          ];
      ]
  in
  let analysis = Separ.analyze [ victim ] in
  let launch =
    List.find
      (fun v -> v.Separ_ase.Ase.v_kind = "service_launch")
      analysis.Separ.report.Separ_ase.Ase.r_vulnerabilities
  in
  let bundle = Separ.Bundle.update_passive_targets analysis.Separ.bundle in
  match Attack.concretize bundle launch.Separ_ase.Ase.v_scenario with
  | None -> Alcotest.fail "expected an attack app"
  | Some mal ->
      let d = Device.create () in
      Device.install d victim;
      Device.install d mal;
      Attack.trigger d;
      (* the crafted intent must pass the scheme+host data test *)
      check "attack reaches the data-gated victim" true
        (List.exists
           (function
             | Effect.Intent_delivered { receiver = "DataGate"; _ } -> true
             | _ -> false)
           (Device.effects d))

let concretize_tests =
  [
    Alcotest.test_case "concretized attack passes data test" `Quick
      test_concretize_data_constrained;
  ]

let tests = tests @ concretize_tests

(* --- compiled PDP: hook modes, hot swap, zero-copy fast path -------------------- *)

module Metrics = Separ_obs.Metrics

let blocked_by effects =
  List.filter_map
    (function
      | Effect.Delivery_blocked { policy_id; _ } -> Some policy_id | _ -> None)
    effects

(* The same traffic must produce identical enforcement effects whether
   the hook consults the compiled matcher or the uncompiled reference
   scan. *)
let test_pdp_modes_equivalent () =
  let pair = sender_receiver_apks ~explicit:false ~receiver_perm:None in
  let run mode =
    let d = Device.create () in
    let sender, receiver = pair in
    Device.install d sender;
    Device.install d receiver;
    Device.set_policies d [ block_policy ] [ "s"; "r" ];
    Device.set_enforcement d true;
    Device.set_pdp_mode d mode;
    Device.start_component d ~pkg:"s" ~component:"Snd";
    String.concat "\n"
      (List.map (Fmt.str "%a" Effect.pp) (Device.effects d))
  in
  let compiled = run Device.Compiled in
  check "reference mode matches compiled" true
    (String.equal compiled (run Device.Reference));
  check "the decision fired" true
    (compiled <> "" && String.length compiled > 0)

(* Swap the store from inside the consent callback — i.e. while a hook
   check is in flight.  The in-flight check must be decided entirely by
   the pre-swap snapshot; the next send sees only the new store. *)
let test_hot_swap_under_traffic () =
  Metrics.enable ();
  Metrics.reset ();
  let prompt = { block_policy with Policy.p_action = Policy.Prompt } in
  let swapped_deny = { block_policy with Policy.p_id = "swapped-deny" } in
  let sender, receiver =
    sender_receiver_apks ~explicit:false ~receiver_perm:None
  in
  let d = Device.create () in
  Device.install d sender;
  Device.install d receiver;
  Device.set_policies d [ prompt ] [ "s"; "r" ];
  Device.set_enforcement d true;
  Device.set_consent d (fun _ _ ->
      (* hot swap while this very check is being decided *)
      Device.swap_policies d [ swapped_deny ];
      false);
  Device.start_component d ~pkg:"s" ~component:"Snd";
  (* the in-flight check was decided by the pre-swap prompt policy *)
  check "in-flight check used the pre-swap store" true
    (blocked_by (Device.effects d) = [ "block-rcv" ]);
  check "prompt was shown" true
    (List.exists
       (function Effect.Prompt_shown _ -> true | _ -> false)
       (Device.effects d));
  (* subsequent traffic sees only the new store: a deny, no prompt *)
  Device.clear_effects d;
  Device.start_component d ~pkg:"s" ~component:"Snd";
  check "post-swap traffic hits the new store" true
    (blocked_by (Device.effects d) = [ "swapped-deny" ]);
  check "no prompt after swap" false
    (List.exists
       (function Effect.Prompt_shown _ -> true | _ -> false)
       (Device.effects d));
  check "swap visible through the accessor" true
    (Device.policies d = [ swapped_deny ]);
  (* swap telemetry: counter bumped, latency observed *)
  check_int "one swap counted" 1
    (Metrics.counter_value (Metrics.counter "runtime.policy_swaps"));
  let swap_obs =
    List.fold_left
      (fun acc (_, n) -> acc + n)
      0
      (Metrics.histogram_buckets
         (Metrics.histogram "runtime.swap_latency_us"))
  in
  check_int "swap latency observed" 1 swap_obs;
  Metrics.reset ();
  Metrics.disable ()

(* Every hooked delivery is counted once, in either PDP mode. *)
let test_hook_check_ledger () =
  Metrics.enable ();
  Metrics.reset ();
  let pair = sender_receiver_apks ~explicit:false ~receiver_perm:None in
  let run mode =
    let d = Device.create () in
    let sender, receiver = pair in
    Device.install d sender;
    Device.install d receiver;
    Device.set_policies d [ block_policy ] [ "s"; "r" ];
    Device.set_enforcement d true;
    Device.set_pdp_mode d mode;
    Device.start_component d ~pkg:"s" ~component:"Snd"
  in
  let checks () = Metrics.counter_value (Metrics.counter "runtime.hook_checks") in
  run Device.Compiled;
  let compiled = checks () in
  check "compiled hook checks were counted" true (compiled > 0);
  run Device.Reference;
  check_int "reference hook counts the same checks" (2 * compiled) (checks ());
  Metrics.reset ();
  Metrics.disable ()

let compiled_pdp_tests =
  [
    Alcotest.test_case "PDP modes produce identical effects" `Quick
      test_pdp_modes_equivalent;
    Alcotest.test_case "hot swap under traffic" `Quick
      test_hot_swap_under_traffic;
    Alcotest.test_case "hook check ledger" `Quick test_hook_check_ledger;
  ]

let tests = tests @ compiled_pdp_tests

(* --- pinned interpreter output ------------------------------------------------ *)

(* Launch every component of [apk] at its default entry point on [d];
   a launch that raises is recorded by the exception's name. *)
let launch_all d apk =
  let pkg = Apk.package apk in
  List.filter_map
    (fun (c : Component.t) ->
      let component = c.Component.name in
      Option.map
        (fun entry ->
          Device.clear_effects d;
          let outcome =
            match Device.start_component ~entry d ~pkg ~component with
            | () -> Ok (Device.effects d)
            | exception e -> Error (Printexc.exn_slot_name e)
          in
          (pkg, component, entry, outcome))
        (Apk.default_entry apk component))
    apk.Apk.manifest.Manifest.components

(* What the interpreter does, digested: every component of the first 100
   seed-2016 corpus apps launched at its default entry point, all apps
   installed on one device so launches also exercise cross-app dispatch;
   then every FlowBench app (the corpus has no [if-nez] and no loop) on a
   fresh device each, and every Table I case's own driver.  The
   marshalling ignores sharing, so the digest moves only when what the
   interpreter does changes; a deliberate change must update it. *)
let pinned_effects_digest = "d43607886f7ac928d694d98cd5682fe2"

let test_pinned_effects () =
  let corpus =
    let module G = Separ_workload.Generator in
    let first = { (List.hd G.default_profiles) with G.count = 100 } in
    G.generate ~seed:2016 ~profiles:[ first ] ()
    |> List.map (fun (g : G.generated) -> g.G.apk)
  in
  let d = Device.create () in
  List.iter (Device.install d) corpus;
  let corpus_launches = List.concat_map (launch_all d) corpus in
  let flowbench_launches =
    List.concat_map
      (fun (c : Separ_suites.Flowbench.case) ->
        let d = Device.create () in
        Device.install d c.Separ_suites.Flowbench.fb_apk;
        launch_all d c.Separ_suites.Flowbench.fb_apk)
      (Separ_suites.Flowbench.all ())
  in
  let case_runs =
    List.map
      (fun (c : Separ_suites.Case.t) ->
        let d = Device.create () in
        List.iter (Device.install d) c.Separ_suites.Case.apks;
        ( c.Separ_suites.Case.name,
          match c.Separ_suites.Case.run d with
          | () -> Ok (Device.effects d)
          | exception e -> Error (Printexc.exn_slot_name e) ))
      (Separ_suites.Table1.all_cases ())
  in
  Alcotest.(check string)
    "interpreter output digest" pinned_effects_digest
    (Digest.to_hex
       (Digest.string
          (Marshal.to_string
             (corpus_launches @ flowbench_launches, case_runs)
             [ Marshal.No_sharing ])))

let tests =
  tests
  @ [ Alcotest.test_case "pinned output digest" `Quick test_pinned_effects ]
