(* Tests for the static analysis framework: CFG reachability with cuts,
   the dataflow engine, and the combined abstract interpreter — string
   resolution, intent-site properties, taint (flow, field, and context
   sensitivity), permission guards, reachability pruning, the
   dynamic-registration facts, joins across loop back edges, and facts
   that do not depend on where blocks start. *)

open Separ_android
open Separ_dalvik
module B = Builder
module Interp = Separ_static.Interp

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let service_apk ?(perms = []) ?(extra_components = []) ~name methods =
  Apk.make
    ~manifest:
      (Manifest.make ~package:("test." ^ name) ~uses_permissions:perms
         ~components:
           (Component.make ~name ~kind:Component.Service ()
           :: extra_components)
         ())
    ~classes:[ B.cls ~name methods ]

let facts_of ?(k1 = true) ?(kind = Component.Service) apk name =
  Interp.analyze_component ~k1 apk (Component.make ~name ~kind ())

let has_path facts src snk =
  List.exists
    (fun p -> p.Interp.pf_source = src && p.Interp.pf_sink = snk)
    facts.Interp.paths

(* --- CFG --------------------------------------------------------------------- *)

let test_cfg_reachability_cut () =
  let m =
    B.meth ~name:"m" ~params:1 (fun b ->
        let l = B.fresh_label b in
        B.if_eqz b 0 l;
        B.nop b;
        B.place_label b l;
        B.nop b)
  in
  let all = Separ_static.Cfg.reachable m in
  check "everything reachable" true (Array.for_all (fun x -> x) all);
  (* cut the fall-through edge of the branch: instr 1 dies *)
  let cut i j = i = 0 && j = 1 in
  let r = Separ_static.Cfg.reachable ~cut m in
  check "fall-through dead" false r.(1);
  check "target alive" true r.(2)

let test_dataflow_constants () =
  (* x = "a"; loop back to the head.  Each pass through the loop block
     adds one, capped at 5, so the loop head climbs from the entry value
     to the cap and the exit block sees the cap too. *)
  let m =
    B.meth ~name:"m" ~params:1 (fun b ->
        let top = B.fresh_label b in
        B.place_label b top;
        let _ = B.const_str b "a" in
        B.if_eqz b 0 top)
  in
  let lat =
    Separ_static.Dataflow.
      {
        copy = (fun s -> ref !s);
        join_into =
          (fun h s ->
            if !s > !h then begin
              h := !s;
              true
            end
            else false);
      }
  in
  let ins =
    Separ_static.Dataflow.forward lat ~entry:(ref 1)
      ~run:(fun _ _ s -> ref (min (!s + 1) 5))
      m
  in
  (* blocks: label, const, branch | the return Builder appends *)
  Alcotest.(check int) "blocks" 2 (Array.length ins);
  let value b = Option.map ( ! ) ins.(b) in
  Alcotest.(check (option int)) "loop head at its fixpoint" (Some 5) (value 0);
  Alcotest.(check (option int)) "exit block" (Some 5) (value 1)

(* --- intent extraction -------------------------------------------------------- *)

let test_intent_properties () =
  let apk =
    service_apk ~name:"S" ~perms:[ Permission.access_fine_location ]
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let v = B.get_location b in
            let i = B.new_intent b in
            B.set_action b i "go";
            B.add_category b i "cat";
            B.set_data_type b i "t/x";
            B.set_data_scheme b i "https";
            B.put_extra b i ~key:"k" ~value:v;
            B.start_service b i);
      ]
  in
  let facts = facts_of apk "S" in
  match facts.Interp.intents with
  | [ f ] ->
      Alcotest.(check (option (list string))) "action" (Some [ "go" ]) f.Interp.if_actions;
      Alcotest.(check (list string)) "categories" [ "cat" ] f.Interp.if_categories;
      Alcotest.(check (list string)) "types" [ "t/x" ] f.Interp.if_data_types;
      Alcotest.(check (list string)) "schemes" [ "https" ] f.Interp.if_data_schemes;
      check "tainted extra" true (f.Interp.if_extra_taints = [ Resource.Location ]);
      check "icc kind" true (f.Interp.if_icc = Api.Start_service)
  | l -> Alcotest.failf "expected 1 intent fact, got %d" (List.length l)

let test_multivalue_action () =
  let apk =
    service_apk ~name:"S"
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let i = B.new_intent b in
            let cond = B.get_string_extra b 0 ~key:"w" in
            let els = B.fresh_label b in
            let fin = B.fresh_label b in
            B.if_eqz b cond els;
            B.set_action b i "a1";
            B.goto b fin;
            B.place_label b els;
            B.set_action b i "a2";
            B.place_label b fin;
            let v = B.const_str b "x" in
            B.put_extra b i ~key:"k" ~value:v;
            B.start_service b i);
      ]
  in
  let facts = facts_of apk "S" in
  match facts.Interp.intents with
  | [ f ] ->
      Alcotest.(check (option (list string)))
        "both actions resolved"
        (Some [ "a1"; "a2" ])
        (Option.map (List.sort compare) f.Interp.if_actions)
  | _ -> Alcotest.fail "expected one intent fact"

let test_unresolvable_action_is_top () =
  let apk =
    service_apk ~name:"S"
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let i = B.new_intent b in
            let a = B.get_string_extra b 0 ~key:"which" in
            B.invoke b (Api.mref Api.c_intent "setAction") [ i; a ];
            B.start_service b i);
      ]
  in
  let facts = facts_of apk "S" in
  match facts.Interp.intents with
  | [ f ] ->
      Alcotest.(check (option (list string)))
        "action unresolved" None f.Interp.if_actions
  | _ -> Alcotest.fail "expected one intent fact"

let test_explicit_target () =
  let apk =
    service_apk ~name:"S"
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let i = B.new_intent b in
            B.set_class_name b i "Other";
            let v = B.const_str b "x" in
            B.put_extra b i ~key:"k" ~value:v;
            B.start_activity b i);
      ]
  in
  let facts = facts_of apk "S" in
  match facts.Interp.intents with
  | [ f ] ->
      Alcotest.(check (list string)) "target" [ "Other" ] f.Interp.if_targets
  | _ -> Alcotest.fail "expected one intent fact"

(* --- taint --------------------------------------------------------------------- *)

let test_taint_direct () =
  let apk =
    service_apk ~name:"S" ~perms:[ Permission.read_phone_state ]
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let v = B.get_device_id b in
            B.write_log b ~payload:v);
      ]
  in
  check "IMEI -> LOG" true (has_path (facts_of apk "S") Resource.Imei Resource.Log)

let test_taint_through_helper () =
  let apk =
    service_apk ~name:"S" ~perms:[ Permission.read_phone_state ]
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let v = B.get_device_id b in
            B.call b ~cls:"S" ~name:"log1" [ v ]);
        B.meth ~name:"log1" ~params:1 (fun b ->
            B.call b ~cls:"S" ~name:"log2" [ 0 ]);
        B.meth ~name:"log2" ~params:1 (fun b -> B.write_log b ~payload:0);
      ]
  in
  check "taint flows through two calls" true
    (has_path (facts_of apk "S") Resource.Imei Resource.Log)

let test_taint_through_field () =
  let apk =
    service_apk ~name:"S" ~perms:[ Permission.read_phone_state ]
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let v = B.get_device_id b in
            B.sput b ~field:"stash" ~src:v;
            let w = B.sget b ~field:"stash" in
            B.write_log b ~payload:w);
      ]
  in
  check "taint flows through field" true
    (has_path (facts_of apk "S") Resource.Imei Resource.Log)

let test_taint_through_return () =
  let apk =
    service_apk ~name:"S" ~perms:[ Permission.read_phone_state ]
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let v = B.call_result b ~cls:"S" ~name:"fetch" [] in
            B.write_log b ~payload:v);
        B.meth ~name:"fetch" ~params:0 (fun b ->
            let v = B.get_device_id b in
            B.return_reg b v);
      ]
  in
  check "taint flows through return value" true
    (has_path (facts_of apk "S") Resource.Imei Resource.Log)

let test_icc_source () =
  let apk =
    service_apk ~name:"S"
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let v = B.get_string_extra b 0 ~key:"in" in
            B.write_log b ~payload:v);
      ]
  in
  let facts = facts_of apk "S" in
  check "ICC -> LOG" true (has_path facts Resource.Icc Resource.Log);
  Alcotest.(check (list string)) "read keys" [ "in" ] facts.Interp.reads_extra_keys

let test_icc_sink () =
  let apk =
    service_apk ~name:"S" ~perms:[ Permission.read_phone_state ]
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let v = B.get_device_id b in
            let i = B.new_intent b in
            B.set_action b i "out";
            B.put_extra b i ~key:"k" ~value:v;
            B.send_broadcast b i);
      ]
  in
  check "IMEI -> ICC" true (has_path (facts_of apk "S") Resource.Imei Resource.Icc)

let test_no_false_taint () =
  let apk =
    service_apk ~name:"S" ~perms:[ Permission.read_phone_state ]
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let _sensitive = B.get_device_id b in
            let clean = B.const_str b "hello" in
            B.write_log b ~payload:clean);
      ]
  in
  check "clean value produces no path" false
    (has_path (facts_of apk "S") Resource.Imei Resource.Log)

(* --- reachability pruning ------------------------------------------------------- *)

let test_dead_method_not_analyzed () =
  let apk =
    service_apk ~name:"S" ~perms:[ Permission.read_phone_state ]
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b -> B.nop b);
        B.meth ~name:"deadCode" ~params:1 (fun b ->
            let v = B.get_device_id b in
            B.write_log b ~payload:v);
      ]
  in
  check "dead method produces no facts" false
    (has_path (facts_of apk "S") Resource.Imei Resource.Log);
  (* the all-methods mode (baseline behaviour) does see it *)
  let facts =
    Interp.analyze_component ~all_methods:true apk
      (Component.make ~name:"S" ~kind:Component.Service ())
  in
  check "all-methods mode reports it" true
    (has_path facts Resource.Imei Resource.Log)

let test_dead_branch_not_reported () =
  let apk =
    service_apk ~name:"S" ~perms:[ Permission.read_phone_state ]
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            B.return_void b;
            (* dead code after return *)
            let v = B.get_device_id b in
            B.write_log b ~payload:v);
      ]
  in
  check "code after return ignored" false
    (has_path (facts_of apk "S") Resource.Imei Resource.Log)

(* --- permission guards ------------------------------------------------------------ *)

let guarded_apk ~invert =
  service_apk ~name:"S" ~perms:[ Permission.send_sms ]
    [
      B.meth ~name:"onStartCommand" ~params:1 (fun b ->
          let num = B.get_string_extra b 0 ~key:"n" in
          let res = B.check_calling_permission b Permission.send_sms in
          if invert then begin
            (* if-nez jumps to the granted branch *)
            let granted = B.fresh_label b in
            let fin = B.fresh_label b in
            B.if_nez b res granted;
            B.goto b fin;
            B.place_label b granted;
            B.send_text_message b ~number:num ~body:num;
            B.place_label b fin
          end
          else begin
            let deny = B.fresh_label b in
            B.if_eqz b res deny;
            B.send_text_message b ~number:num ~body:num;
            B.place_label b deny
          end);
    ]

let guards_of facts =
  List.concat_map
    (fun p -> if p.Interp.pf_sink = Resource.Sms then p.Interp.pf_guards else [])
    facts.Interp.paths

let test_guard_if_eqz () =
  let facts = facts_of (guarded_apk ~invert:false) "S" in
  check "guard detected (if-eqz form)" true
    (List.mem Permission.send_sms (guards_of facts))

let test_guard_if_nez () =
  let facts = facts_of (guarded_apk ~invert:true) "S" in
  check "guard detected (if-nez form)" true
    (List.mem Permission.send_sms (guards_of facts))

let test_unguarded () =
  let apk =
    service_apk ~name:"S" ~perms:[ Permission.send_sms ]
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let num = B.get_string_extra b 0 ~key:"n" in
            B.send_text_message b ~number:num ~body:num);
      ]
  in
  let facts = facts_of apk "S" in
  check "no guard without check" true (guards_of facts = [])

let test_guard_across_call_k1 () =
  let apk guard =
    service_apk ~name:"S" ~perms:[ Permission.send_sms ]
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let num = B.get_string_extra b 0 ~key:"n" in
            if guard then begin
              let res = B.check_calling_permission b Permission.send_sms in
              let deny = B.fresh_label b in
              B.if_eqz b res deny;
              B.call b ~cls:"S" ~name:"doSend" [ num ];
              B.place_label b deny
            end
            else B.call b ~cls:"S" ~name:"doSend" [ num ]);
        B.meth ~name:"doSend" ~params:1 (fun b ->
            B.send_text_message b ~number:0 ~body:0);
      ]
  in
  let guarded = facts_of (apk true) "S" in
  check "guard propagates into callee (k=1)" true
    (List.mem Permission.send_sms (guards_of guarded));
  let unguarded = facts_of (apk false) "S" in
  check "no spurious guard" true (guards_of unguarded = [])

(* --- context sensitivity ----------------------------------------------------------- *)

let context_apk () =
  (* an identity helper is called with a sensitive and a clean argument;
     only the clean result reaches the log.  With k = 1 the two calls
     keep separate summaries; with k = 0 the returns blur and the clean
     call inherits the sensitive taint — a false positive. *)
  service_apk ~name:"S" ~perms:[ Permission.read_phone_state ]
    [
      B.meth ~name:"onStartCommand" ~params:1 (fun b ->
          let v = B.get_device_id b in
          let v' = B.call_result b ~cls:"S" ~name:"id" [ v ] in
          B.sput b ~field:"keep" ~src:v';
          let clean = B.const_str b "ok" in
          let w = B.call_result b ~cls:"S" ~name:"id" [ clean ] in
          B.write_log b ~payload:w);
      B.meth ~name:"id" ~params:1 (fun b -> B.return_reg b 0);
    ]

let test_context_sensitivity () =
  let apk = context_apk () in
  let k1 = facts_of ~k1:true apk "S" in
  check "k=1 keeps calls apart" false
    (has_path k1 Resource.Imei Resource.Log);
  let k0 = facts_of ~k1:false apk "S" in
  check "k=0 merges calls (imprecise)" true
    (has_path k0 Resource.Imei Resource.Log)

(* --- dynamic registration ----------------------------------------------------------- *)

let test_dynamic_filter_fact () =
  let apk =
    service_apk ~name:"S"
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let i = B.new_intent b in
            B.set_class_name b i "R";
            B.set_action b i "evt";
            B.register_receiver b i);
      ]
  in
  let facts = facts_of apk "S" in
  check "registers flag" true facts.Interp.registers_dynamic_receiver;
  match facts.Interp.dynamic_filters with
  | [ (Some "R", [ "evt" ]) ] -> ()
  | _ -> Alcotest.fail "expected one resolvable dynamic filter"

let test_uses_permissions () =
  let apk =
    service_apk ~name:"S"
      ~perms:[ Permission.access_fine_location; Permission.send_sms ]
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let v = B.get_location b in
            B.write_log b ~payload:v);
      ]
  in
  let facts = facts_of apk "S" in
  check "uses location" true
    (List.mem Permission.access_fine_location facts.Interp.uses_permissions);
  check "does not use sms" false
    (List.mem Permission.send_sms facts.Interp.uses_permissions)

let tests =
  [
    Alcotest.test_case "cfg reachability with cuts" `Quick
      test_cfg_reachability_cut;
    Alcotest.test_case "dataflow fixpoint" `Quick test_dataflow_constants;
    Alcotest.test_case "intent properties" `Quick test_intent_properties;
    Alcotest.test_case "multi-value action" `Quick test_multivalue_action;
    Alcotest.test_case "unresolvable action" `Quick
      test_unresolvable_action_is_top;
    Alcotest.test_case "explicit target" `Quick test_explicit_target;
    Alcotest.test_case "taint direct" `Quick test_taint_direct;
    Alcotest.test_case "taint through helpers" `Quick test_taint_through_helper;
    Alcotest.test_case "taint through field" `Quick test_taint_through_field;
    Alcotest.test_case "taint through return" `Quick test_taint_through_return;
    Alcotest.test_case "ICC as source" `Quick test_icc_source;
    Alcotest.test_case "ICC as sink" `Quick test_icc_sink;
    Alcotest.test_case "no false taint" `Quick test_no_false_taint;
    Alcotest.test_case "dead method pruned" `Quick test_dead_method_not_analyzed;
    Alcotest.test_case "dead branch pruned" `Quick test_dead_branch_not_reported;
    Alcotest.test_case "guard if-eqz" `Quick test_guard_if_eqz;
    Alcotest.test_case "guard if-nez" `Quick test_guard_if_nez;
    Alcotest.test_case "unguarded sink" `Quick test_unguarded;
    Alcotest.test_case "guard across call (k=1)" `Quick
      test_guard_across_call_k1;
    Alcotest.test_case "context sensitivity k1 vs k0" `Quick
      test_context_sensitivity;
    Alcotest.test_case "dynamic filter fact" `Quick test_dynamic_filter_fact;
    Alcotest.test_case "uses permissions" `Quick test_uses_permissions;
  ]

let test_recursive_program_terminates () =
  (* a recursive helper must not explode the context space; the analysis
     converges quickly and still finds the leak *)
  let apk =
    service_apk ~name:"S" ~perms:[ Permission.read_phone_state ]
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let v = B.get_device_id b in
            B.call b ~cls:"S" ~name:"walk" [ v ]);
        B.meth ~name:"walk" ~params:1 (fun b ->
            let fin = B.fresh_label b in
            B.if_eqz b 0 fin;
            B.call b ~cls:"S" ~name:"walk" [ 0 ];
            B.place_label b fin;
            B.write_log b ~payload:0);
      ]
  in
  let t0 = Unix.gettimeofday () in
  let facts = facts_of apk "S" in
  let elapsed = Unix.gettimeofday () -. t0 in
  check "recursive leak found" true
    (has_path facts Resource.Imei Resource.Log);
  check "converges quickly" true (elapsed < 1.0)

let test_guard_intersection_across_callers () =
  (* a helper guarded at one call site but not another is NOT enforced *)
  let apk =
    service_apk ~name:"S" ~perms:[ Permission.send_sms ]
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let n = B.get_string_extra b 0 ~key:"n" in
            let res = B.check_calling_permission b Permission.send_sms in
            let deny = B.fresh_label b in
            B.if_eqz b res deny;
            B.call b ~cls:"S" ~name:"doSend" [ n ];
            B.place_label b deny;
            (* second, unguarded route to the same helper *)
            B.call b ~cls:"S" ~name:"doSendAlias" [ n ]);
        B.meth ~name:"doSendAlias" ~params:1 (fun b ->
            B.call b ~cls:"S" ~name:"doSend" [ 0 ]);
        B.meth ~name:"doSend" ~params:1 (fun b ->
            B.send_text_message b ~number:0 ~body:0);
      ]
  in
  let facts = facts_of apk "S" in
  (* the unguarded route must surface as an open (unguarded) path *)
  check "open path survives" true
    (List.exists
       (fun p ->
         p.Interp.pf_sink = Resource.Sms && p.Interp.pf_guards = [])
       facts.Interp.paths)

(* --- wide register files --------------------------------------------------------- *)

(* Generated methods hold hundreds of registers, most of them dead after
   one use.  [high b] fills 300 registers with constants and returns a
   fresh register above them, so these cases exercise block-head copies
   and joins far from the parameters. *)
let high b =
  for k = 1 to 300 do
    ignore (B.const_str b (Printf.sprintf "pad%d" k))
  done;
  B.fresh_reg b

let wide_service ~perms body =
  let m = B.meth ~name:"onStartCommand" ~params:1 body in
  check "method holds 300+ registers" true (m.Ir.n_regs > 300);
  service_apk ~name:"S" ~perms [ m ]

(* The tainted state reaches the join point second when the taint is
   written on the fall-through branch, and first when the fall-through
   branch overwrites it: the join must keep it either way. *)
let test_wide_taint_one_branch () =
  let apk ~write_on_branch =
    wide_service ~perms:[ Permission.read_phone_state ] (fun b ->
        let v = B.get_device_id b in
        let r = high b in
        if not write_on_branch then B.move b ~dst:r ~src:v;
        let c = B.get_string_extra b 0 ~key:"w" in
        let skip = B.fresh_label b in
        B.if_eqz b c skip;
        if write_on_branch then B.move b ~dst:r ~src:v
        else B.emit b (Ir.Const (r, Ir.Cstr "clean"));
        B.place_label b skip;
        B.write_log b ~payload:r)
  in
  check "taint written on one branch survives the join" true
    (has_path (facts_of (apk ~write_on_branch:true) "S") Resource.Imei
       Resource.Log);
  check "taint overwritten on one branch survives the join" true
    (has_path (facts_of (apk ~write_on_branch:false) "S") Resource.Imei
       Resource.Log)

let test_wide_overwrite_with_bottom () =
  let apk =
    wide_service ~perms:[ Permission.read_phone_state ] (fun b ->
        let v = B.get_device_id b in
        let r = high b in
        B.move b ~dst:r ~src:v;
        B.emit b (Ir.Const (r, Ir.Cint 0));
        B.write_log b ~payload:r)
  in
  check "overwritten taint reports no path" false
    (has_path (facts_of apk "S") Resource.Imei Resource.Log)

let test_wide_guard_in_high_register () =
  let apk =
    wide_service ~perms:[ Permission.send_sms ] (fun b ->
        let num = B.get_string_extra b 0 ~key:"n" in
        let res = B.check_calling_permission b Permission.send_sms in
        let r = high b in
        B.move b ~dst:r ~src:res;
        let deny = B.fresh_label b in
        B.if_eqz b r deny;
        B.send_text_message b ~number:num ~body:num;
        B.place_label b deny)
  in
  check "check held in a high register guards the sink" true
    (List.mem Permission.send_sms (guards_of (facts_of apk "S")))

(* --- loops ------------------------------------------------------------------------ *)

(* [loop b body] emits [head: if-eqz c exit; body; goto head; exit:],
   with [c] read from the incoming intent, so the back edge is taken as
   often as the fixpoint needs. *)
let loop b body =
  let c = B.get_string_extra b 0 ~key:"more" in
  let head = B.fresh_label b in
  let exit = B.fresh_label b in
  B.place_label b head;
  B.if_eqz b c exit;
  body ();
  B.goto b head;
  B.place_label b exit

let test_loop_reassigned_string () =
  let apk =
    service_apk ~name:"S"
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let i = B.new_intent b in
            let a = B.const_str b "first" in
            loop b (fun () -> B.emit b (Ir.Const (a, Ir.Cstr "again")));
            B.invoke b (Api.mref Api.c_intent "setAction") [ i; a ];
            B.start_service b i);
      ]
  in
  match (facts_of apk "S").Interp.intents with
  | [ f ] ->
      Alcotest.(check (option (list string)))
        "both actions reach the send" (Some [ "again"; "first" ])
        (Option.map (List.sort compare) f.Interp.if_actions)
  | l -> Alcotest.failf "expected 1 intent fact, got %d" (List.length l)

(* [a] takes [t]'s value from the previous iteration, and [t] turns
   tainted in the first: [a] holds the taint only from the second
   iteration on. *)
let test_loop_taint_second_iteration () =
  let apk =
    service_apk ~name:"S" ~perms:[ Permission.read_phone_state ]
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let a = B.const_str b "clean" in
            let t = B.const_str b "clean" in
            loop b (fun () ->
                B.move b ~dst:a ~src:t;
                let v = B.get_device_id b in
                B.move b ~dst:t ~src:v);
            B.write_log b ~payload:a);
      ]
  in
  let facts = facts_of apk "S" in
  check "taint from the second iteration reaches the sink" true
    (has_path facts Resource.Imei Resource.Log);
  check "the loop condition does not reach the sink" false
    (has_path facts Resource.Icc Resource.Log)

let test_loop_guard_if_nez () =
  let apk =
    service_apk ~name:"S" ~perms:[ Permission.send_sms ]
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let num = B.get_string_extra b 0 ~key:"n" in
            loop b (fun () ->
                let res = B.check_calling_permission b Permission.send_sms in
                let denied = B.fresh_label b in
                let granted = B.fresh_label b in
                B.if_nez b res granted;
                B.goto b denied;
                B.place_label b granted;
                B.send_text_message b ~number:num ~body:num;
                B.place_label b denied));
      ]
  in
  let facts = facts_of apk "S" in
  check "sink in the loop body reports its path" true
    (has_path facts Resource.Icc Resource.Sms);
  check "if-nez check in the loop body guards the sink" true
    (List.mem Permission.send_sms (guards_of facts))

(* --- block boundaries ----------------------------------------------------------- *)

(* [split_blocks rand apk] inserts [goto L; :L] before about a quarter
   of the instructions of every method, never before a move-result
   (which must follow its invoke).  Each insertion ends a block and
   starts a new one without changing what any path computes. *)
let split_blocks rand (apk : Apk.t) =
  let fresh = ref 0 in
  let split (m : Ir.meth) =
    let body =
      Array.to_list m.Ir.body
      |> List.concat_map (fun instr ->
             match instr with
             | Ir.Move_result _ -> [ instr ]
             | _ when Random.State.int rand 4 > 0 -> [ instr ]
             | _ ->
                 incr fresh;
                 let l = Printf.sprintf "split.%d" !fresh in
                 [ Ir.Goto l; Ir.Label l; instr ])
    in
    Ir.make_method ~name:m.Ir.mname ~n_params:m.Ir.n_params ~n_regs:m.Ir.n_regs
      (Array.of_list body)
  in
  Apk.make ~manifest:apk.Apk.manifest
    ~classes:
      (List.map
         (fun (c : Ir.cls) -> { c with Ir.methods = List.map split c.Ir.methods })
         apk.Apk.classes)

(* Every Table I case app, every FlowBench app and the first 200 apps of
   the seed-2016 corpus. *)
let split_corpus =
  lazy
    (List.concat_map
       (fun (c : Separ_suites.Case.t) -> c.Separ_suites.Case.apks)
       (Separ_suites.Table1.all_cases ())
    @ List.map
        (fun (c : Separ_suites.Flowbench.case) -> c.Separ_suites.Flowbench.fb_apk)
        (Separ_suites.Flowbench.all ())
    @
    let module G = Separ_workload.Generator in
    let first = { (List.hd G.default_profiles) with G.count = 200 } in
    G.generate ~seed:2016 ~profiles:[ first ] ()
    |> List.map (fun (g : G.generated) -> g.G.apk))

let component_facts apk =
  List.map
    (fun comp -> Interp.analyze_component apk comp)
    apk.Apk.manifest.Manifest.components

let qcheck_block_splits_keep_facts =
  QCheck.Test.make ~name:"block splits keep the facts" ~count:5 QCheck.int
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      List.for_all
        (fun apk ->
          component_facts (split_blocks rand apk) = component_facts apk
          || QCheck.Test.fail_reportf "facts of %s changed" (Apk.package apk))
        (Lazy.force split_corpus))

let extra_tests =
  [
    Alcotest.test_case "recursion terminates" `Quick
      test_recursive_program_terminates;
    Alcotest.test_case "guard intersection across callers" `Quick
      test_guard_intersection_across_callers;
    Alcotest.test_case "wide register file: taint on one branch" `Quick
      test_wide_taint_one_branch;
    Alcotest.test_case "wide register file: overwrite with bottom" `Quick
      test_wide_overwrite_with_bottom;
    Alcotest.test_case "wide register file: guard in a high register" `Quick
      test_wide_guard_in_high_register;
    Alcotest.test_case "loop: reassigned string reaches a send" `Quick
      test_loop_reassigned_string;
    Alcotest.test_case "loop: taint on the second iteration" `Quick
      test_loop_taint_second_iteration;
    Alcotest.test_case "loop: if-nez guard in the body" `Quick
      test_loop_guard_if_nez;
    QCheck_alcotest.to_alcotest qcheck_block_splits_keep_facts;
  ]

let tests = tests @ extra_tests
