(* Tests for the IR substrate: builder output validity, validation
   errors, assembler round trips (including a property test over random
   programs), and the APK text container. *)

open Separ_android
open Separ_dalvik
module B = Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_builder_valid () =
  let m =
    B.meth ~name:"m" ~params:1 (fun b ->
        let v = B.get_location b in
        let i = B.new_intent b in
        B.set_action b i "a";
        B.put_extra b i ~key:"k" ~value:v;
        B.start_service b i)
  in
  check "passes the constructor's checks again" true
    (Ir.make_method ~name:m.Ir.mname ~n_params:m.Ir.n_params
       ~n_regs:m.Ir.n_regs m.Ir.body
    = m);
  check "params recorded" true (m.Ir.n_params = 1);
  check "has instructions" true (Array.length m.Ir.body > 5)

let test_builder_implicit_return () =
  let m = B.meth ~name:"m" (fun b -> B.nop b) in
  check "implicit return appended" true
    (m.Ir.body.(Array.length m.Ir.body - 1) = Ir.Return None)

let rejected body =
  try
    ignore (Ir.make_method ~name:"bad" ~n_params:0 ~n_regs:1 body);
    false
  with Failure _ -> true

let test_validate_bad_register () =
  check "bad register rejected" true (rejected Ir.[| Move (5, 0) |])

let test_validate_bad_label () =
  check "bad label rejected" true (rejected Ir.[| Goto "nowhere" |])

let test_validate_move_result () =
  check "floating move-result rejected" true (rejected Ir.[| Move_result 0 |])

(* The message names the checker, the label and the method, nothing else. *)
let test_validate_duplicate_label () =
  Alcotest.check_raises "duplicate label message"
    (Failure "Ir.validate: duplicate label L0 in bad") (fun () ->
      ignore
        (Ir.make_method ~name:"bad" ~n_params:0 ~n_regs:1
           Ir.[| Label "L0"; Label "L0"; Return None |]))

let test_branches () =
  let m =
    B.meth ~name:"m" ~params:1 (fun b ->
        let skip = B.fresh_label b in
        B.if_eqz b 0 skip;
        B.nop b;
        B.place_label b skip)
  in
  let succs = ref [] in
  Separ_static.Cfg.iter_succs m 0 (fun j -> succs := j :: !succs);
  check "branch has two successors" true (List.length !succs = 2)

(* --- assembler round trips -------------------------------------------------- *)

let sample_class () =
  B.cls ~name:"com.x.Sample"
    [
      B.meth ~name:"onCreate" ~params:1 (fun b ->
          let v = B.get_device_id b in
          let i = B.new_intent b in
          B.set_action b i "act.x";
          B.add_category b i "cat.y";
          B.set_class_name b i "Other";
          B.put_extra b i ~key:"k \"quoted\"" ~value:v;
          let skip = B.fresh_label b in
          B.if_nez b v skip;
          B.write_log b ~payload:v;
          B.place_label b skip;
          B.start_activity b i);
      B.meth ~name:"helper" ~params:2 (fun b -> B.return_reg b 1);
    ]

let test_asm_roundtrip () =
  let c = sample_class () in
  let text = Asm.disassemble_class c in
  match Asm.assemble text with
  | [ c' ] ->
      check "class name" true (c'.Ir.cname = c.Ir.cname);
      check "structurally equal" true (c = c')
  | _ -> Alcotest.fail "expected one class"

let random_method rand =
  let n_regs = 2 + Random.State.int rand 6 in
  let b = B.create ~params:1 () in
  let n = 3 + Random.State.int rand 15 in
  let labels = ref [] in
  for k = 0 to n do
    match Random.State.int rand 8 with
    | 0 -> ignore (B.const_str b (Printf.sprintf "s%d" k))
    | 1 -> ignore (B.const_int b k)
    | 2 -> B.move b ~dst:0 ~src:0
    | 3 ->
        let l = B.fresh_label b in
        labels := l :: !labels;
        B.if_eqz b 0 l
    | 4 -> B.sput b ~field:"f" ~src:0
    | 5 -> ignore (B.sget b ~field:"g")
    | 6 -> B.invoke b (Separ_android.Api.mref "com.a.B" "m") [ 0 ]
    | _ -> B.nop b
  done;
  (* place all pending labels so branches resolve *)
  List.iter (B.place_label b) !labels;
  B.return_void b;
  ignore n_regs;
  B.finish b ~name:"r"

let test_asm_random_roundtrip () =
  let rand = Random.State.make [| 99 |] in
  for _ = 1 to 100 do
    let c = Ir.{ cname = "R"; methods = [ random_method rand ] } in
    let text = Asm.disassemble_class c in
    match Asm.assemble text with
    | [ c' ] -> check "random class round trips" true (c = c')
    | _ -> Alcotest.fail "expected one class"
  done

(* --- APK container ----------------------------------------------------------- *)

let sample_apk () =
  Apk.make
    ~manifest:
      (Manifest.make ~package:"com.x"
         ~uses_permissions:[ Permission.read_phone_state ]
         ~components:
           [
             Component.make ~name:"com.x.Sample" ~kind:Component.Activity
               ~intent_filters:
                 [
                   Intent_filter.make ~actions:[ "a1"; "a2" ]
                     ~categories:[ "c" ] ~data_schemes:[ "https" ] ();
                 ]
               ();
             Component.make ~name:"Other" ~kind:Component.Service
               ~exported:true ~permission:Permission.send_sms ();
           ]
         ())
    ~classes:[ sample_class () ]

let test_apk_text_roundtrip () =
  let apk = sample_apk () in
  let text = Apk_text.print apk in
  let apk' = Apk_text.parse text in
  check "package" true (Apk.package apk' = "com.x");
  check "manifest equal" true (apk.Apk.manifest = apk'.Apk.manifest);
  check "classes equal" true (apk.Apk.classes = apk'.Apk.classes)

let test_apk_size () =
  let apk = sample_apk () in
  check "size counts instructions" true (Apk.size apk > 10)

let test_entry_methods () =
  check_int "activity entries" 7
    (List.length (Apk.entry_methods Component.Activity));
  Alcotest.(check (list string))
    "lifecycle after onCreate" [ "onStart"; "onResume" ]
    (Apk.lifecycle_after "onCreate");
  check "service start entry" true
    (Apk.entry_for_icc Separ_android.Api.Start_service = "onStartCommand");
  check "bind entry" true
    (Apk.entry_for_icc Separ_android.Api.Bind_service = "onBind");
  check "broadcast entry" true
    (Apk.entry_for_icc Separ_android.Api.Send_broadcast = "onReceive")

(* --- resolved branch targets ---------------------------------------------------- *)

(* Over the first 200 seed-2016 corpus apps: every branch's target is the
   [Label] it names, no other instruction has one, and printing and
   re-parsing the APK text rebuilds equal methods. *)
let test_corpus_targets () =
  let module G = Separ_workload.Generator in
  let first = { (List.hd G.default_profiles) with G.count = 200 } in
  let apks =
    G.generate ~seed:2016 ~profiles:[ first ] ()
    |> List.map (fun (g : G.generated) -> g.G.apk)
  in
  let branches = ref 0 and wrong = ref [] in
  let check_method (m : Ir.meth) =
    let n = Array.length m.Ir.body in
    if Array.length m.Ir.targets <> n then wrong := m.Ir.mname :: !wrong;
    Array.iteri
      (fun i instr ->
        let t = m.Ir.targets.(i) in
        let ok =
          match instr with
          | Ir.If_eqz (_, l) | Ir.If_nez (_, l) | Ir.Goto l ->
              incr branches;
              t >= 0 && t < n && m.Ir.body.(t) = Ir.Label l
          | _ -> t = -1
        in
        if not ok then wrong := Printf.sprintf "%s@%d" m.Ir.mname i :: !wrong)
      m.Ir.body
  in
  List.iter
    (fun apk ->
      List.iter (fun c -> List.iter check_method c.Ir.methods) apk.Apk.classes;
      if (Apk_text.parse (Apk_text.print apk)).Apk.classes <> apk.Apk.classes
      then wrong := ("round trip of " ^ Apk.package apk) :: !wrong)
    apks;
  Alcotest.(check (list string)) "every target resolved, every round trip equal"
    [] !wrong;
  check "the corpus branches" true (!branches > 0)

let tests =
  [
    Alcotest.test_case "builder produces valid IR" `Quick test_builder_valid;
    Alcotest.test_case "builder implicit return" `Quick
      test_builder_implicit_return;
    Alcotest.test_case "validate bad register" `Quick test_validate_bad_register;
    Alcotest.test_case "validate bad label" `Quick test_validate_bad_label;
    Alcotest.test_case "validate move-result" `Quick test_validate_move_result;
    Alcotest.test_case "validate duplicate label" `Quick
      test_validate_duplicate_label;
    Alcotest.test_case "branch successors" `Quick test_branches;
    Alcotest.test_case "assembler round trip" `Quick test_asm_roundtrip;
    Alcotest.test_case "assembler random round trips" `Slow
      test_asm_random_roundtrip;
    Alcotest.test_case "apk text round trip" `Quick test_apk_text_roundtrip;
    Alcotest.test_case "apk size" `Quick test_apk_size;
    Alcotest.test_case "entry methods" `Quick test_entry_methods;
    Alcotest.test_case "corpus branch targets" `Quick test_corpus_targets;
  ]
