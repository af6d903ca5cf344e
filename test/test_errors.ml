(* Failure-path tests: malformed inputs must be rejected with clear
   errors at every layer — the assembler, the APK container format, the
   policy parser, the relational AST, and the bounds checker. *)

open Separ_relog

let check = Alcotest.(check bool)

let raises_failure f =
  try
    ignore (f ());
    false
  with
  | Failure _ -> true
  | Separ_dalvik.Asm.Parse_error _ -> true

let raises_parse_error f =
  try
    ignore (f ());
    false
  with Separ_dalvik.Asm.Parse_error _ -> true

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* --- assembler --------------------------------------------------------------- *)

let test_asm_bad_instruction () =
  check "garbage instruction" true
    (raises_failure (fun () ->
         Separ_dalvik.Asm.assemble
           ".class C\n.method m params=0 regs=1\n  frobnicate v0\n.end\n"))

let test_asm_unterminated_method () =
  check "missing .end" true
    (raises_failure (fun () ->
         Separ_dalvik.Asm.assemble ".class C\n.method m params=0 regs=1\n  nop\n"))

let test_asm_instruction_outside_method () =
  check "instruction outside method" true
    (raises_failure (fun () ->
         Separ_dalvik.Asm.assemble ".class C\n  nop\n"))

let test_asm_bad_register () =
  check "bad register" true
    (raises_failure (fun () ->
         Separ_dalvik.Asm.assemble
           ".class C\n.method m params=0 regs=1\n  move vx, v0\n.end\n"))

let test_asm_undefined_label () =
  check "undefined branch target" true
    (raises_failure (fun () ->
         Separ_dalvik.Asm.assemble
           ".class C\n.method m params=0 regs=1\n  goto :missing\n.end\n"))

let test_asm_duplicate_label () =
  check "duplicate label" true
    (raises_failure (fun () ->
         Separ_dalvik.Asm.assemble
           ".class C\n.method m params=0 regs=1\n  :L0\n  :L0\n  \
            return-void\n.end\n"))

(* An [invoke] line must close its argument list: a missing [)] is a
   parse error, not an out-of-bounds [String.sub] or a register read
   one digit short. *)
let test_asm_invoke_unclosed_call () =
  let line = "invoke-virtual android.telephony.TelephonyManager#getDeviceId(" in
  check "parse_instr" true
    (raises_parse_error (fun () -> Separ_dalvik.Asm.parse_instr line));
  check "through Apk_text.parse" true
    (raises_parse_error (fun () ->
         Separ_dalvik.Apk_text.parse
           (".package p\n\n.class C\n.method m params=0 regs=1\n  " ^ line
          ^ "\n.end\n")))

let test_asm_invoke_unclosed_args () =
  check "A#m(v12 is not v1" true
    (raises_parse_error (fun () ->
         Separ_dalvik.Asm.parse_instr "invoke-virtual A#m(v12"))

(* --- APK text ------------------------------------------------------------------ *)

let test_apk_text_missing_package () =
  check "missing .package" true
    (raises_failure (fun () ->
         Separ_dalvik.Apk_text.parse ".component Activity A\n"))

let test_apk_text_bad_kind () =
  check "bad component kind" true
    (raises_failure (fun () ->
         Separ_dalvik.Apk_text.parse ".package p\n.component Widget W\n"))

let test_apk_text_unknown_line () =
  check "unknown directive" true
    (raises_failure (fun () ->
         Separ_dalvik.Apk_text.parse ".package p\n.frobnicate x\n"))

let test_apk_text_bad_component_attrs () =
  check "duplicate component" true
    (raises_failure (fun () ->
         Separ_dalvik.Apk_text.parse
           ".package p\n.component Activity A\n.component Service A\n"));
  check "bad exported flag" true
    (raises_failure (fun () ->
         Separ_dalvik.Apk_text.parse
           ".package p\n.component Activity A exported=maybe\n"))

(* --- policies -------------------------------------------------------------------- *)

let test_policy_bad_line () =
  check "malformed policy line" true
    (raises_failure (fun () -> Separ_policy.Policy.of_line "not a policy"));
  check "bad event" true
    (raises_failure (fun () ->
         Separ_policy.Policy.of_line "id\tBAD_EVENT\tallow\treason\t"));
  check "bad action" true
    (raises_failure (fun () ->
         Separ_policy.Policy.of_line "id\tICC_send\texplode\treason\t"));
  check "bad condition" true
    (raises_failure (fun () ->
         Separ_policy.Policy.of_line
           "id\tICC_send\tallow\treason\tIntent.frobnicate=x"));
  check "bad resource in condition" true
    (raises_failure (fun () ->
         Separ_policy.Policy.of_line
           "id\tICC_send\tallow\treason\tIntent.extra=NOT_A_RESOURCE"))

(* --- relational AST -------------------------------------------------------------- *)

let test_ast_arity_errors () =
  let u = Relation.make "U" 1 and b = Relation.make "B" 2 in
  let arity_err f =
    try
      ignore (Ast.arity (f ()));
      false
    with Ast.Arity_error _ -> true
  in
  check "transpose of unary" true
    (arity_err (fun () -> Ast.Transpose (Ast.Rel u)));
  check "closure of unary" true
    (arity_err (fun () -> Ast.Closure (Ast.Rel u)));
  check "union of mixed arity" true
    (arity_err (fun () -> Ast.Union (Ast.Rel u, Ast.Rel b)));
  check "join to arity zero" true
    (arity_err (fun () -> Ast.Join (Ast.Rel u, Ast.Rel u)))

let test_bounds_errors () =
  let u = Universe.of_atoms [ "a"; "b" ] in
  let r = Relation.make "R" 1 in
  let bounds = Bounds.create u in
  check "lower must be within upper" true
    (raises_invalid (fun () ->
         Bounds.bound bounds r
           ~lower:(Tuple_set.univ 2)
           ~upper:(Tuple_set.of_list 1 [ [| 0 |] ])));
  check "arity mismatch rejected" true
    (raises_invalid (fun () ->
         Bounds.bound bounds r ~lower:(Tuple_set.empty 2)
           ~upper:(Tuple_set.iden 2)));
  check "unbound relation lookup" true
    (raises_invalid (fun () -> Bounds.get bounds r))

let test_tuple_set_errors () =
  check "of_list arity mismatch" true
    (raises_invalid (fun () -> Tuple_set.of_list 2 [ [| 0 |] ]));
  check "union arity mismatch" true
    (raises_invalid (fun () ->
         Tuple_set.union (Tuple_set.univ 2) (Tuple_set.iden 2)));
  check "transpose of unary" true
    (raises_invalid (fun () -> Tuple_set.transpose (Tuple_set.univ 2)))

let test_relation_arity () =
  check "arity must be positive" true
    (raises_invalid (fun () -> Relation.make "Z" 0))

(* --- solver input ------------------------------------------------------------------ *)

let test_solver_zero_literal () =
  let s = Separ_sat.Solver.create () in
  check "zero literal rejected" true
    (raises_invalid (fun () -> Separ_sat.Solver.add_clause s [ 1; 0 ]))

let test_dimacs_garbage () =
  check "garbage token" true
    (raises_failure (fun () -> Separ_sat.Dimacs.parse_string "p cnf 2 1\n1 x 0\n"))

(* --- mutation fuzzing ------------------------------------------------------------ *)

(* Seeded mutants of a well-formed text: truncated, bytes overwritten
   (mostly with characters the formats give meaning to), a short span
   deleted, or a line copied elsewhere. *)
let mutants ~seed ~count text =
  let rng = Random.State.make [| seed |] in
  let alphabet = " \n\t()#,:=\".-0123456789vp" in
  let pick () =
    if Random.State.int rng 4 = 0 then Char.chr (Random.State.int rng 256)
    else alphabet.[Random.State.int rng (String.length alphabet)]
  in
  let n = String.length text in
  List.init count (fun _ ->
      let at = Random.State.int rng n in
      match Random.State.int rng 4 with
      | 0 -> String.sub text 0 at
      | 1 ->
          let b = Bytes.of_string text in
          for _ = 0 to Random.State.int rng 3 do
            Bytes.set b (Random.State.int rng n) (pick ())
          done;
          Bytes.to_string b
      | 2 ->
          let len = min (n - at) (1 + Random.State.int rng 8) in
          String.sub text 0 at ^ String.sub text (at + len) (n - at - len)
      | _ ->
          let lines = Array.of_list (String.split_on_char '\n' text) in
          let line = lines.(Random.State.int rng (Array.length lines)) in
          String.sub text 0 at ^ line ^ "\n" ^ String.sub text at (n - at))

(* Every mutant parses or raises [Failure] / [Asm.Parse_error], the
   parsers' documented errors; anything else escaping is a bug. *)
let fuzz_parser name parse inputs =
  List.iteri
    (fun seed text ->
      List.iter
        (fun m ->
          match parse m with
          | _ -> ()
          | exception (Failure _ | Separ_dalvik.Asm.Parse_error _) -> ()
          | exception e ->
              Alcotest.failf "%s raised %s on mutant:\n%s" name
                (Printexc.to_string e) m)
        (mutants ~seed ~count:1000 text))
    inputs

let test_fuzz_apk_text () =
  let profiles =
    List.map
      (fun p ->
        { p with Separ_workload.Generator.count = 2; size_lo = 8; size_hi = 40 })
      Separ_workload.Generator.default_profiles
  in
  fuzz_parser "Apk_text.parse" Separ_dalvik.Apk_text.parse
    (List.map
       (fun g -> Separ_dalvik.Apk_text.print g.Separ_workload.Generator.apk)
       (Separ_workload.Generator.generate ~profiles ()))

let test_fuzz_dimacs () =
  let rng = Random.State.make [| 7 |] in
  let cnf () =
    let n_vars = 1 + Random.State.int rng 30 in
    let lit () =
      (1 + Random.State.int rng n_vars) * if Random.State.bool rng then 1 else -1
    in
    {
      Separ_sat.Dimacs.n_vars;
      clauses =
        List.init (Random.State.int rng 40) (fun _ ->
            List.init (1 + Random.State.int rng 4) (fun _ -> lit ()));
    }
  in
  fuzz_parser "Dimacs.parse_string" Separ_sat.Dimacs.parse_string
    (List.init 4 (fun _ -> Separ_sat.Dimacs.to_string (cnf ())))

(* A real stored verdict, mutated in place: every mutant is a recorded
   corrupt miss that deletes the file and never raises, and the
   unmutated bytes still hit. *)
let test_fuzz_cache_entries () =
  let module Store = Separ_cache.Store in
  let dir = Filename.temp_file "separ_cache_fuzz" "" in
  Sys.remove dir;
  let t = Store.open_ ~dir () in
  let bundle =
    Separ.Bundle.of_models
      (List.map Separ.Extract.extract
         [ Separ.Demo.navigation_app (); Separ.Demo.messenger_app () ])
  in
  let sig_ = List.hd (Separ.Signatures.all ()) in
  ignore (Separ.Ase.analyze ~signatures:[ sig_ ] ~cache:t bundle);
  let key = Separ.Ase.signature_fingerprint bundle sig_ in
  let path = Filename.concat dir (Digest.to_hex (Digest.string key)) in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let write s = Out_channel.with_open_bin path (fun oc -> output_string oc s) in
  let hit () =
    match Store.find t ~key with
    | Some _ -> true
    | None -> false
    | exception e ->
        Alcotest.failf "Store.find raised %s" (Printexc.to_string e)
  in
  let corrupt () = List.assoc "corrupt" (Store.stats t) in
  let raw = read () in
  List.iter
    (fun m ->
      write m;
      let before = corrupt () in
      check "mutant misses" false (hit ());
      Alcotest.(check int) "mutant counted corrupt" (before + 1) (corrupt ());
      check "mutant deleted" false (Sys.file_exists path))
    (List.filter (( <> ) raw) (mutants ~seed:11 ~count:300 raw));
  write raw;
  check "unmutated entry hits" true (hit ());
  Sys.remove path;
  Sys.rmdir dir

(* --- device ------------------------------------------------------------------------- *)

let test_device_unknown_app () =
  let d = Separ_runtime.Device.create () in
  check "starting an uninstalled app" true
    (raises_invalid (fun () ->
         Separ_runtime.Device.start_component d ~pkg:"ghost" ~component:"C"))

(* [start_component] rejects an uninstalled package but silently runs
   nothing for an unknown component; [find_app] and [find_class] are the
   lookups a caller uses to reject both before starting. *)
let test_device_unknown_component () =
  let module Device = Separ_runtime.Device in
  let apk = Separ.Demo.navigation_app () in
  let pkg = Separ_dalvik.Apk.package apk in
  let d = Device.create () in
  Device.install d apk;
  check "installed package found" true (Device.find_app d pkg <> None);
  check "unknown package not found" true (Device.find_app d "ghost" = None);
  let cls = List.hd apk.Separ_dalvik.Apk.classes in
  check "known component found" true
    (Separ_dalvik.Apk.find_class apk cls.Separ_dalvik.Ir.cname <> None);
  check "unknown component not found" true
    (Separ_dalvik.Apk.find_class apk "NoSuchComponent" = None);
  Device.start_component d ~pkg ~component:"NoSuchComponent";
  check "unknown component runs nothing" true (Device.effects d = [])

(* [start_component] also runs nothing for an entry the class does not
   define; [Ir.find_method] is the lookup a caller uses to reject it.
   The same component started at an entry it does define has effects. *)
let test_device_unknown_entry () =
  let module Device = Separ_runtime.Device in
  let apk = Separ.Demo.navigation_app () in
  let pkg = Separ_dalvik.Apk.package apk in
  let component = "LocationFinder" in
  let cls = Option.get (Separ_dalvik.Apk.find_class apk component) in
  check "defined entry found" true
    (Separ_dalvik.Ir.find_method cls "onStartCommand" <> None);
  check "unknown entry not found" true
    (Separ_dalvik.Ir.find_method cls "noSuchEntry" = None);
  let run entry =
    let d = Device.create () in
    Device.install d apk;
    Device.start_component d ~entry ~pkg ~component;
    Device.effects d
  in
  check "defined entry runs" true (run "onStartCommand" <> []);
  check "unknown entry runs nothing" true (run "noSuchEntry" = [])

(* A file that cannot be read or parsed fails [Apk_text.load] with
   [Sys_error] or [Failure] whose message alone says what is wrong:
   the serve daemon prints that message for a failed upload. *)
let test_apk_text_load_errors () =
  let missing =
    Filename.concat (Filename.get_temp_dir_name ()) "separ_no_such.apk.txt"
  in
  (match Separ_dalvik.Apk_text.load missing with
  | _ -> Alcotest.fail "load of a missing file succeeded"
  | exception Sys_error msg ->
      check "error names the path" true
        (String.starts_with ~prefix:missing msg)
  | exception e -> Alcotest.failf "load raised %s" (Printexc.to_string e));
  let bad = Filename.temp_file "separ_bad" ".apk.txt" in
  Out_channel.with_open_bin bad (fun oc ->
      output_string oc ".package p\ngarbage here\n");
  (match Separ_dalvik.Apk_text.load bad with
  | _ -> Alcotest.fail "load of a garbage line succeeded"
  | exception Failure msg ->
      Alcotest.(check string)
        "message names the line" "Apk_text.parse: unexpected line garbage" msg
  | exception e -> Alcotest.failf "load raised %s" (Printexc.to_string e));
  Sys.remove bad

(* A path under a regular file cannot be created: [mkdir_p] reports it
   as [Sys_error] naming the path, not as a [Unix_error]. *)
let test_store_mkdir_p_under_file () =
  let file = Filename.temp_file "separ_mkdir" "" in
  let path = Filename.concat (Filename.concat file "sub") "dir" in
  (match Separ_cache.Store.mkdir_p path with
  | () -> Alcotest.fail "mkdir_p under a file succeeded"
  | exception Sys_error msg ->
      check "error names the path" true
        (String.starts_with ~prefix:(path ^ ": ") msg)
  | exception e ->
      Alcotest.failf "mkdir_p raised %s" (Printexc.to_string e));
  check "file left as it was" true
    (Sys.file_exists file && not (Sys.is_directory file));
  Sys.remove file

(* [of_string] parses a whole store: blank lines are skipped, and one
   malformed line among good ones fails the whole parse. *)
let test_policy_store_bad_line () =
  let p =
    {
      Separ_policy.Policy.p_id = "p1";
      p_event = Separ_policy.Policy.Icc_receive;
      p_conditions = [ Separ_policy.Policy.Receiver_is "R" ];
      p_action = Separ_policy.Policy.Deny;
      p_reason = "test";
    }
  in
  let line = Separ_policy.Policy.to_line p in
  check "good store with blank lines parses" true
    (Separ_policy.Policy.of_string ("\n" ^ line ^ "\n\n" ^ line ^ "\n")
    = [ p; p ]);
  check "one bad line fails the store" true
    (raises_failure (fun () ->
         Separ_policy.Policy.of_string
           (line ^ "\nnot a policy\n" ^ line ^ "\n")))

(* A bare launch enters the first entry point of the component's kind
   that its class defines: a generated Service, which defines only
   [onStartCommand], runs it and has effects; an Activity enters
   [onCreate].  A class with none of its kind's entry points, or one
   that no component declares, has no default entry. *)
let test_default_entry () =
  let module Apk = Separ_dalvik.Apk in
  let module Ir = Separ_dalvik.Ir in
  let module Component = Separ_android.Component in
  let module Device = Separ_runtime.Device in
  let apk =
    (List.hd (Separ_workload.Generator.generate ())).Separ_workload.Generator.apk
  in
  let first kind =
    (List.find
       (fun c -> c.Component.kind = kind)
       apk.Apk.manifest.Separ_android.Manifest.components)
      .Component.name
  in
  let svc = first Component.Service in
  let entry = Alcotest.(check (option string)) in
  entry "service enters onStartCommand" (Some "onStartCommand")
    (Apk.default_entry apk svc);
  entry "activity enters onCreate" (Some "onCreate")
    (Apk.default_entry apk (first Component.Activity));
  entry "undeclared class has none" None
    (Apk.default_entry apk "NoSuchComponent");
  let bare =
    {
      apk with
      Apk.classes =
        List.map
          (fun (c : Ir.cls) ->
            if c.Ir.cname = svc then { c with Ir.methods = [] } else c)
          apk.Apk.classes;
    }
  in
  entry "class without entry points has none" None (Apk.default_entry bare svc);
  let d = Device.create () in
  Device.install d apk;
  Device.start_component d ~pkg:(Apk.package apk) ~component:svc;
  check "a bare start of the service has effects" true (Device.effects d <> [])

let tests =
  [
    Alcotest.test_case "asm: bad instruction" `Quick test_asm_bad_instruction;
    Alcotest.test_case "asm: unterminated method" `Quick
      test_asm_unterminated_method;
    Alcotest.test_case "asm: instruction outside method" `Quick
      test_asm_instruction_outside_method;
    Alcotest.test_case "asm: bad register" `Quick test_asm_bad_register;
    Alcotest.test_case "asm: undefined label" `Quick test_asm_undefined_label;
    Alcotest.test_case "asm: duplicate label" `Quick test_asm_duplicate_label;
    Alcotest.test_case "asm: invoke without closing paren" `Quick
      test_asm_invoke_unclosed_call;
    Alcotest.test_case "asm: invoke args without closing paren" `Quick
      test_asm_invoke_unclosed_args;
    Alcotest.test_case "apk text: missing package" `Quick
      test_apk_text_missing_package;
    Alcotest.test_case "apk text: bad kind" `Quick test_apk_text_bad_kind;
    Alcotest.test_case "apk text: unknown directive" `Quick
      test_apk_text_unknown_line;
    Alcotest.test_case "apk text: duplicate component, bad exported" `Quick
      test_apk_text_bad_component_attrs;
    Alcotest.test_case "policy: malformed lines" `Quick test_policy_bad_line;
    Alcotest.test_case "ast: arity errors" `Quick test_ast_arity_errors;
    Alcotest.test_case "bounds: errors" `Quick test_bounds_errors;
    Alcotest.test_case "tuple set: errors" `Quick test_tuple_set_errors;
    Alcotest.test_case "relation: arity" `Quick test_relation_arity;
    Alcotest.test_case "solver: zero literal" `Quick test_solver_zero_literal;
    Alcotest.test_case "dimacs: garbage" `Quick test_dimacs_garbage;
    Alcotest.test_case "fuzz: mutated apk text" `Quick test_fuzz_apk_text;
    Alcotest.test_case "fuzz: mutated dimacs" `Quick test_fuzz_dimacs;
    Alcotest.test_case "fuzz: mutated cache entries" `Quick
      test_fuzz_cache_entries;
    Alcotest.test_case "device: unknown app" `Quick test_device_unknown_app;
    Alcotest.test_case "device: unknown component" `Quick
      test_device_unknown_component;
    Alcotest.test_case "device: unknown entry" `Quick test_device_unknown_entry;
    Alcotest.test_case "apk: default entry follows the component kind" `Quick
      test_default_entry;
    Alcotest.test_case "apk text: load errors carry a message" `Quick
      test_apk_text_load_errors;
    Alcotest.test_case "store: mkdir_p under a file" `Quick
      test_store_mkdir_p_under_file;
    Alcotest.test_case "policy: store with a bad line" `Quick
      test_policy_store_bad_line;
  ]
