(* Tests for the ECA policy layer: condition evaluation, PDP decision
   precedence, serialization round trips (unit + property), and policy
   derivation from each scenario kind. *)

open Separ_android
module Policy = Separ_policy.Policy
module Compile = Separ_policy.Compile

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let base_event =
  Policy.
    {
      ev_kind = Icc_receive;
      ev_sender_component = "Sender";
      ev_sender_app = "com.s";
      ev_sender_installed_at_analysis = true;
      ev_sender_permissions = [ Permission.internet ];
      ev_intent =
        Intent.make ~action:"go"
          ~extras:
            [ Intent.{ key = "k"; value = "v"; taint = [ Resource.Location ] } ]
          ();
      ev_receiver_component = "Receiver";
      ev_receiver_app = "com.r";
    }

let test_conditions () =
  let holds c = Policy.condition_holds base_event c in
  check "receiver is" true (holds (Policy.Receiver_is "Receiver"));
  check "receiver is not" false (holds (Policy.Receiver_is "Other"));
  check "receiver not in" true (holds (Policy.Receiver_not_in [ "A"; "B" ]));
  check "receiver in allow set" false
    (holds (Policy.Receiver_not_in [ "Receiver" ]));
  check "sender is" true (holds (Policy.Sender_is "Sender"));
  check "installed" false (holds Policy.Sender_app_not_installed);
  check "action is" true (holds (Policy.Action_is "go"));
  check "action is not" false (holds (Policy.Action_is "stop"));
  check "implicit" true (holds Policy.Implicit);
  check "extras include" true (holds (Policy.Extras_include Resource.Location));
  check "extras exclude" false (holds (Policy.Extras_include Resource.Imei));
  check "lacks permission" true
    (holds (Policy.Sender_lacks_permission Permission.send_sms));
  check "has permission" false
    (holds (Policy.Sender_lacks_permission Permission.internet))

let policy ?(event = Policy.Icc_receive) ?(conds = []) ?(action = Policy.Prompt)
    id =
  Policy.
    {
      p_id = id;
      p_event = event;
      p_conditions = conds;
      p_action = action;
      p_reason = "test";
    }

let test_decide_precedence () =
  let allow = policy ~action:Policy.Allow "a" in
  let prompt = policy ~action:Policy.Prompt "p" in
  let deny = policy ~action:Policy.Deny "d" in
  (match Policy.decide [ allow; prompt; deny ] base_event with
  | Policy.Denied p -> check "deny wins" true (p.Policy.p_id = "d")
  | _ -> Alcotest.fail "expected deny");
  (match Policy.decide [ allow; prompt ] base_event with
  | Policy.Prompted p -> check "prompt beats allow" true (p.Policy.p_id = "p")
  | _ -> Alcotest.fail "expected prompt");
  check "no match allows" true (Policy.decide [] base_event = Policy.Allowed)

let test_decide_event_kind () =
  let send_policy = policy ~event:Policy.Icc_send "s" in
  check "send policy ignores receive events" true
    (Policy.decide [ send_policy ] base_event = Policy.Allowed)

let test_decide_conjunction () =
  let p =
    policy
      ~conds:[ Policy.Receiver_is "Receiver"; Policy.Action_is "stop" ]
      "conj"
  in
  check "all conditions must hold" true
    (Policy.decide [ p ] base_event = Policy.Allowed)

let test_roundtrip_unit () =
  let policies =
    [
      policy
        ~conds:
          [
            Policy.Receiver_is "MessageSender";
            Policy.Extras_include Resource.Location;
            Policy.Receiver_not_in [ "A"; "B" ];
            Policy.Sender_lacks_permission Permission.send_sms;
            Policy.Implicit;
            Policy.Sender_app_not_installed;
            Policy.Action_is "showLoc";
            Policy.Sender_is "LocationFinder";
          ]
        "p1";
      policy ~event:Policy.Icc_send ~action:Policy.Deny "p2";
    ]
  in
  let restored = Policy.of_string (Policy.to_string policies) in
  check "round trip" true (restored = policies)

let qcheck_roundtrip =
  let cond_gen =
    QCheck.Gen.oneof
      [
        QCheck.Gen.map (fun s -> Policy.Receiver_is s) (QCheck.Gen.string_size ~gen:QCheck.Gen.(char_range 'a' 'z') (QCheck.Gen.return 5));
        QCheck.Gen.map (fun s -> Policy.Sender_is s) (QCheck.Gen.string_size ~gen:QCheck.Gen.(char_range 'a' 'z') (QCheck.Gen.return 4));
        QCheck.Gen.return Policy.Implicit;
        QCheck.Gen.return Policy.Sender_app_not_installed;
        QCheck.Gen.map
          (fun r -> Policy.Extras_include r)
          (QCheck.Gen.oneofl (Resource.sources @ Resource.sinks));
        QCheck.Gen.map
          (fun p -> Policy.Sender_lacks_permission p)
          (QCheck.Gen.oneofl Permission.all);
      ]
  in
  let policy_gen =
    QCheck.Gen.map
      (fun (conds, deny) ->
        policy ~conds ~action:(if deny then Policy.Deny else Policy.Prompt) "q")
      (QCheck.Gen.pair (QCheck.Gen.list_size (QCheck.Gen.int_range 0 5) cond_gen) QCheck.Gen.bool)
  in
  QCheck.Test.make ~name:"policy serialization round trips" ~count:200
    (QCheck.make policy_gen) (fun p ->
      Policy.of_line (Policy.to_line p) = p)

(* --- derivation ---------------------------------------------------------------- *)

let analysis () =
  Separ.analyze [ Separ.Demo.navigation_app (); Separ.Demo.messenger_app () ]

let test_derivation_kinds () =
  let a = analysis () in
  let ids = List.map (fun p -> p.Policy.p_id) a.Separ.policies in
  let has prefix =
    List.exists
      (fun id ->
        String.length id > String.length prefix
        && String.sub id 0 (String.length prefix) = prefix)
      ids
  in
  check "hijack policy" true (has "pol-hijack");
  check "launch policy" true (has "pol-launch");
  check "privesc policy" true (has "pol-privesc");
  check "leak policy" true (has "pol-leak")

let test_derivation_dedup () =
  let a = analysis () in
  let keys =
    List.map
      (fun p ->
        (p.Policy.p_event, List.sort compare p.Policy.p_conditions, p.Policy.p_action))
      a.Separ.policies
  in
  check_int "no duplicate policies" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_hijack_policy_allows_legit_receiver () =
  let a = analysis () in
  let hijack =
    List.find
      (fun p ->
        String.length p.Policy.p_id > 10
        && String.sub p.Policy.p_id 0 10 = "pol-hijack")
      a.Separ.policies
  in
  check "legitimate receiver in allow set" true
    (List.exists
       (function
         | Policy.Receiver_not_in allowed -> List.mem "RouteFinder" allowed
         | _ -> false)
       hijack.Policy.p_conditions)

let tests =
  [
    Alcotest.test_case "condition evaluation" `Quick test_conditions;
    Alcotest.test_case "decision precedence" `Quick test_decide_precedence;
    Alcotest.test_case "decision event kind" `Quick test_decide_event_kind;
    Alcotest.test_case "conjunction semantics" `Quick test_decide_conjunction;
    Alcotest.test_case "serialization round trip" `Quick test_roundtrip_unit;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    Alcotest.test_case "derivation kinds" `Quick test_derivation_kinds;
    Alcotest.test_case "derivation dedup" `Quick test_derivation_dedup;
    Alcotest.test_case "hijack allow-set" `Quick
      test_hijack_policy_allows_legit_receiver;
  ]

(* --- event views, single-pass decide, compiled PDP -------------------------- *)

let all_base_conditions =
  [
    Policy.Receiver_is "Receiver";
    Policy.Receiver_is "Other";
    Policy.Receiver_not_in [ "A"; "B" ];
    Policy.Receiver_not_in [ "Receiver" ];
    Policy.Sender_is "Sender";
    Policy.Sender_is "Nobody";
    Policy.Sender_app_not_installed;
    Policy.Action_is "go";
    Policy.Action_is "stop";
    Policy.Implicit;
    Policy.Extras_include Resource.Location;
    Policy.Extras_include Resource.Imei;
    Policy.Sender_lacks_permission Permission.send_sms;
    Policy.Sender_lacks_permission Permission.internet;
  ]

let test_view_agrees_with_reference () =
  let vw = Policy.view_of_event base_event in
  List.iter
    (fun c ->
      check (Policy.condition_to_string c)
        (Policy.condition_holds base_event c)
        (Policy.condition_holds_view vw c))
    all_base_conditions

(* The old decide-then-flip protocol, as the oracle for decide_both. *)
let sequential_both store ev =
  match Policy.decide store ev with
  | Policy.Allowed ->
      Policy.decide store
        {
          ev with
          Policy.ev_kind =
            (match ev.Policy.ev_kind with
            | Policy.Icc_receive -> Policy.Icc_send
            | Policy.Icc_send -> Policy.Icc_receive);
        }
  | d -> d

let fingerprint = function
  | Policy.Allowed -> "allow"
  | Policy.Prompted p -> "prompt:" ^ p.Policy.p_id
  | Policy.Denied p -> "deny:" ^ p.Policy.p_id

let test_decide_both_resolution_order () =
  (* primary-kind Prompt beats flipped-kind Deny (the sequential
     protocol never reaches the flipped scan when the primary prompts) *)
  let recv_prompt = policy ~event:Policy.Icc_receive "rp" in
  let send_deny = policy ~event:Policy.Icc_send ~action:Policy.Deny "sd" in
  check "primary prompt beats flipped deny" true
    (fingerprint (Policy.decide_both [ send_deny; recv_prompt ] base_event)
    = "prompt:rp");
  (* flipped-kind rules apply when the primary side allows *)
  check "flipped deny applies when primary allows" true
    (fingerprint (Policy.decide_both [ send_deny ] base_event) = "deny:sd");
  check "agrees with the sequential protocol" true
    (fingerprint (sequential_both [ send_deny; recv_prompt ] base_event)
    = fingerprint (Policy.decide_both [ send_deny; recv_prompt ] base_event))

(* Generators for the differential fuzzer: small component/action pools
   so random stores and random events actually collide. *)
let gen_name prefix n =
  QCheck.Gen.map (fun i -> prefix ^ string_of_int i) (QCheck.Gen.int_range 0 (n - 1))

let fuzz_cond_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun r -> Policy.Receiver_is r) (gen_name "R" 4);
      map
        (fun rs -> Policy.Receiver_not_in rs)
        (list_size (int_range 0 3) (gen_name "R" 4));
      map (fun s -> Policy.Sender_is s) (gen_name "S" 4);
      return Policy.Sender_app_not_installed;
      map (fun a -> Policy.Action_is a) (gen_name "act" 4);
      return Policy.Implicit;
      map (fun r -> Policy.Extras_include r) (oneofl Resource.all);
      map (fun p -> Policy.Sender_lacks_permission p) (oneofl Permission.all);
    ]

let fuzz_store_gen =
  let open QCheck.Gen in
  map
    (fun ps ->
      (* distinct ids so identity mismatches are visible *)
      List.mapi (fun i p -> { p with Policy.p_id = "f" ^ string_of_int i }) ps)
    (list_size (int_range 0 40)
       (map
          (fun ((send, conds), act) ->
            policy
              ~event:(if send then Policy.Icc_send else Policy.Icc_receive)
              ~conds
              ~action:
                (match act with
                | 0 -> Policy.Allow
                | 1 -> Policy.Prompt
                | _ -> Policy.Deny)
              "x")
          (pair
             (pair bool (list_size (int_range 0 4) fuzz_cond_gen))
             (int_range 0 2))))

let fuzz_event_gen =
  let open QCheck.Gen in
  map
    (fun (((recv, sc), (rc, installed)), ((action, implicit), (res, perms))) ->
      Policy.
        {
          ev_kind = (if recv then Icc_receive else Icc_send);
          ev_sender_component = sc;
          ev_sender_app = "app." ^ sc;
          ev_sender_installed_at_analysis = installed;
          ev_sender_permissions = perms;
          ev_intent =
            Intent.make
              ?target:(if implicit then None else Some rc)
              ?action
              ~extras:
                (List.map
                   (fun r -> Intent.{ key = "k"; value = "v"; taint = [ r ] })
                   res)
              ();
          ev_receiver_component = rc;
          ev_receiver_app = "app." ^ rc;
        })
    (pair
       (pair (pair bool (gen_name "S" 4)) (pair (gen_name "R" 4) bool))
       (pair
          (pair (opt (gen_name "act" 4)) bool)
          (pair
             (list_size (int_range 0 2) (oneofl Resource.all))
             (list_size (int_range 0 3) (oneofl Permission.all)))))

(* The tentpole's differential fuzzer: random stores x random events,
   compiled matcher vs reference decide — verdict AND deciding-policy
   id, on both the single-kind and the send+receive entries. *)
let qcheck_compiled_identical_to_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"compiled PDP identical to reference decide (verdict + id)"
       ~count:500
       (QCheck.make
          (QCheck.Gen.pair fuzz_store_gen
             (QCheck.Gen.list_size (QCheck.Gen.int_range 1 5) fuzz_event_gen)))
       (fun (store, evs) ->
         let compiled = Compile.compile store in
         List.for_all
           (fun ev ->
             fingerprint (Compile.decide compiled ev)
             = fingerprint (Policy.decide store ev)
             && fingerprint (Compile.decide_full compiled ev)
                = fingerprint (Policy.decide_both store ev)
             && fingerprint (Policy.decide_both store ev)
                = fingerprint (sequential_both store ev))
           evs))

let test_compile_stats () =
  let store =
    [
      policy ~conds:[ Policy.Receiver_is "A" ] ~action:Policy.Deny "d0";
      policy ~conds:[ Policy.Action_is "go" ] "p1";
      policy ~action:Policy.Allow "a2";
      policy ~event:Policy.Icc_send ~conds:[ Policy.Receiver_is "B" ] "p3";
    ]
  in
  let st = Compile.stats (Compile.compile store) in
  check_int "allow policies are not indexed" 3 st.Compile.st_entries;
  check_int "store size recorded" 4 st.Compile.st_total;
  check_int "one action bucket" 1 st.Compile.st_action_buckets;
  check_int "two receiver buckets" 2 st.Compile.st_receiver_buckets

let compiled_pdp_tests =
  [
    Alcotest.test_case "event view agrees with reference conditions" `Quick
      test_view_agrees_with_reference;
    Alcotest.test_case "decide_both resolution order" `Quick
      test_decide_both_resolution_order;
    qcheck_compiled_identical_to_reference;
    Alcotest.test_case "compiled index shape" `Quick test_compile_stats;
  ]

let tests = tests @ compiled_pdp_tests
