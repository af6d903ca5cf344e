(* The app-store analysis service: footprint-index soundness (candidate
   sets are supersets of exact resolution), hot-update = rebuild, the
   serve store's selective re-analysis reproducing full repair byte for
   byte while dispatching strictly fewer bundles, and unchanged
   re-uploads dispatching nothing. *)

open Separ
module Serve = Separ_serve.Serve
module Index = Separ_serve.Index
module App_model = Separ_ame.App_model
module B = Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let stripped report =
  Separ_report.Report.to_string
    ~report:(Ase.strip_performance report)
    ~policies:[] ()

let stripped_reports serve =
  List.map (fun (pkg, r) -> (pkg, stripped r)) (Serve.reports serve)

(* A store app with no inter-app ICC surface at all: uploads elsewhere
   must never select it. *)
let quiet_app () =
  Apk.make
    ~manifest:
      (Manifest.make ~package:"com.quiet.app"
         ~components:
           [ Component.make ~name:"Quiet" ~kind:Component.Service () ]
         ())
    ~classes:
      [
        B.cls ~name:"Quiet"
          [
            B.meth ~name:"onStartCommand" ~params:1 (fun b ->
                ignore (B.const_str b "idle"));
          ];
      ]

(* --- index over hand-built models ------------------------------------------ *)

let model ~pkg components =
  {
    App_model.am_package = pkg;
    am_declared_permissions = [];
    am_components = components;
    am_extraction_ms = 0.0;
    am_size = 0;
  }

let component ?(public = true) ?(kind = Component.Receiver) ?(filters = [])
    ?(intents = []) name =
  {
    App_model.cm_name = name;
    cm_kind = kind;
    cm_public = public;
    cm_filters = filters;
    cm_required_permissions = [];
    cm_uses_permissions = [];
    cm_paths = [];
    cm_intents = intents;
    cm_reads_extras = [];
    cm_dynamic_filters = [];
  }

let intent ?target ?action ?(unresolved = false) ?(categories = [])
    ?data_type ?data_scheme ?data_host ?(icc = Api.Send_broadcast)
    ?(wants_result = false) ?(passive = false) ~sender id =
  {
    App_model.im_id = id;
    im_sender = sender;
    im_target = target;
    im_action = action;
    im_action_unresolved = unresolved;
    im_categories = categories;
    im_data_type = data_type;
    im_data_scheme = data_scheme;
    im_data_host = data_host;
    im_extras = [];
    im_icc = icc;
    im_wants_result = wants_result;
    im_passive = passive;
    im_resolved_targets = [];
  }

let test_index_basics () =
  let sender =
    model ~pkg:"p.send"
      [
        component ~filters:[] "Src"
          ~intents:[ intent ~action:"x" ~sender:"Src" "i1" ];
      ]
  in
  let receiver =
    model ~pkg:"p.recv"
      [ component ~filters:[ Intent_filter.make ~actions:[ "x" ] () ] "Dst" ]
  in
  let other =
    model ~pkg:"p.other"
      [ component ~filters:[ Intent_filter.make ~actions:[ "y" ] () ] "Oth" ]
  in
  let idx = Index.rebuild [ sender; receiver; other ] in
  let im = intent ~action:"x" ~sender:"Src" "i1" in
  let rx = Index.receivers idx im in
  check "receiver indexed under its action" true
    (Index.Pkgs.mem "p.recv" rx);
  check "unrelated app not a candidate" false (Index.Pkgs.mem "p.other" rx);
  check "sender reaches receiver" true
    (Index.Pkgs.mem "p.recv" (Index.affected idx sender));
  check "receiver's senders include the sender" true
    (Index.Pkgs.mem "p.send" (Index.senders_to idx receiver));
  (* action-less intents are conservative: every filtered app *)
  let blind = intent ~sender:"Src" "i2" in
  check "action-less intent reaches all filtered apps" true
    (Index.Pkgs.mem "p.recv" (Index.receivers idx blind)
     && Index.Pkgs.mem "p.other" (Index.receivers idx blind));
  (* statically unresolvable actions widen the same way *)
  let unres = intent ~action:"x" ~unresolved:true ~sender:"Src" "i3" in
  check "unresolved action is a wildcard" true
    (Index.Pkgs.mem "p.other" (Index.receivers idx unres));
  (* explicit targets hit the component-name bucket, even private ones *)
  let priv =
    model ~pkg:"p.priv" [ component ~public:false ~filters:[] "Hidden" ]
  in
  let idx = Index.rebuild [ sender; receiver; other; priv ] in
  check "explicit intent reaches private component" true
    (Index.Pkgs.mem "p.priv"
       (Index.receivers idx (intent ~target:"Hidden" ~sender:"Src" "i4")))

(* The data-test fix feeding the index: a MIME-type-only intent must
   reach a host-listing (scheme-free) filter both exactly and through
   the index. *)
let test_index_type_only_vs_hosted_filter () =
  let hosted =
    Intent_filter.make ~actions:[ "share" ] ~data_types:[ "text/plain" ]
      ~data_hosts:[ "books.prov" ] ()
  in
  let receiver = model ~pkg:"p.recv" [ component ~filters:[ hosted ] "Dst" ] in
  let idx = Index.rebuild [ receiver ] in
  let im =
    intent ~action:"share" ~data_type:"text/plain" ~sender:"Src" "i1"
  in
  let exact =
    List.exists
      (fun c -> Separ_ame.Bundle.resolves_to im c)
      receiver.App_model.am_components
  in
  check "type-only intent exactly matches host-listing filter" true exact;
  check "index agrees" true (Index.Pkgs.mem "p.recv" (Index.receivers idx im))

let test_index_hot_update_equals_rebuild () =
  let a =
    model ~pkg:"p.a"
      [
        component ~filters:[ Intent_filter.make ~actions:[ "x"; "y" ] () ]
          "A" ~intents:[ intent ~action:"z" ~sender:"A" "i1" ];
      ]
  in
  let b =
    model ~pkg:"p.b"
      [ component ~filters:[ Intent_filter.make ~actions:[ "z" ] () ] "B" ]
  in
  let a2 =
    model ~pkg:"p.a"
      [ component ~filters:[ Intent_filter.make ~actions:[ "w" ] () ] "A" ]
  in
  let idx = Index.create () in
  Index.add idx a;
  Index.add idx b;
  check "add = rebuild" true (Index.equal idx (Index.rebuild [ a; b ]));
  Index.remove idx a;
  Index.add idx a2;
  check "update = rebuild" true (Index.equal idx (Index.rebuild [ a2; b ]));
  Index.remove idx b;
  check "remove = rebuild" true (Index.equal idx (Index.rebuild [ a2 ]));
  Index.remove idx a2;
  check "empty again" true (Index.equal idx (Index.create ()))

(* --- property tests --------------------------------------------------------- *)

(* Small closed alphabets so that generated stores are dense enough for
   genuine cross-app resolution to happen. *)
let actions = [ "a1"; "a2"; "a3" ]
let cats = [ "c1"; "c2" ]
let schemes = [ "s1"; "s2" ]
let mimes = [ "t1"; "t2" ]
let hosts = [ "h1"; "h2" ]
let comp_names = [ "CompA"; "CompB"; "CompC"; "CompD" ]

let gen_sublist pool =
  QCheck.Gen.(
    list_size (int_range 0 (List.length pool)) (oneofl pool)
    >|= List.sort_uniq compare)

let gen_opt pool = QCheck.Gen.(opt (oneofl pool))

let gen_filter =
  QCheck.Gen.(
    gen_sublist actions >>= fun acts ->
    gen_sublist cats >>= fun cs ->
    gen_sublist schemes >>= fun ss ->
    gen_sublist mimes >>= fun ts ->
    gen_sublist hosts >|= fun hs ->
    Intent_filter.make ~actions:acts ~categories:cs ~data_types:ts
      ~data_schemes:ss ~data_hosts:hs ())

let gen_intent ~sender id =
  QCheck.Gen.(
    gen_opt comp_names >>= fun target ->
    gen_opt actions >>= fun action ->
    bool >>= fun unresolved_coin ->
    gen_sublist cats >>= fun categories ->
    gen_opt mimes >>= fun data_type ->
    gen_opt schemes >>= fun data_scheme ->
    gen_opt hosts >>= fun data_host ->
    oneofl [ Api.Send_broadcast; Api.Start_service; Api.Start_activity ]
    >>= fun icc ->
    bool >>= fun wants_result ->
    int_range 0 9 >|= fun passive_die ->
    intent ?target ?action
      ~unresolved:(unresolved_coin && action <> None && passive_die mod 3 = 0)
      ~categories ?data_type ?data_scheme ?data_host ~icc ~wants_result
      ~passive:(passive_die = 0) ~sender id)

let gen_component ~pkg idx =
  QCheck.Gen.(
    oneofl comp_names >>= fun base ->
    oneofl [ Component.Activity; Component.Service; Component.Receiver ]
    >>= fun kind ->
    int_range 0 9 >>= fun pub_die ->
    list_size (int_range 0 2) gen_filter >>= fun filters ->
    let name = base ^ string_of_int idx in
    list_size (int_range 0 3)
      (gen_intent ~sender:name (pkg ^ "." ^ name ^ ".i"))
    >|= fun intents ->
    component ~public:(pub_die < 8) ~kind ~filters ~intents name)

let gen_model pkg =
  QCheck.Gen.(
    int_range 1 3 >>= fun n ->
    let rec comps i acc =
      if i >= n then return (List.rev acc)
      else gen_component ~pkg i >>= fun c -> comps (i + 1) (c :: acc)
    in
    comps 0 [] >|= model ~pkg)

let gen_store =
  QCheck.Gen.(
    int_range 2 6 >>= fun n ->
    let rec go i acc =
      if i >= n then return (List.rev acc)
      else gen_model (Printf.sprintf "p%d" i) >>= fun m -> go (i + 1) (m :: acc)
    in
    go 0 [])

(* Targets in generated intents are bare pool names while component
   names carry an index suffix, so explicit intents rarely resolve —
   exactly the kind of asymmetry the superset property must absorb. *)
let arb_store = QCheck.make gen_store

let prop name count gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

(* Candidate sets are supersets of exact resolution, both directions. *)
let qcheck_index_superset =
  prop "footprint candidates superset of exact resolution" 150 arb_store
    (fun store ->
      let idx = Index.rebuild store in
      List.for_all
        (fun (app : App_model.t) ->
          (* receive direction: every exactly-resolving owner is a
             candidate receiver of the intent *)
          List.for_all
            (fun (c : App_model.component_model) ->
              List.for_all
                (fun im ->
                  let candidates = Index.receivers idx im in
                  List.for_all
                    (fun (owner : App_model.t) ->
                      let resolves =
                        List.exists
                          (fun oc -> Separ_ame.Bundle.resolves_to im oc)
                          owner.App_model.am_components
                      in
                      (not resolves)
                      || Index.Pkgs.mem owner.App_model.am_package candidates)
                    store)
                c.App_model.cm_intents)
            app.App_model.am_components
          (* send direction: every exact sender is a candidate sender *)
          && (let senders = Index.senders_to idx app in
              List.for_all
                (fun (other : App_model.t) ->
                  let sends =
                    List.exists
                      (fun (oc : App_model.component_model) ->
                        List.exists
                          (fun im ->
                            List.exists
                              (fun ac -> Separ_ame.Bundle.resolves_to im ac)
                              app.App_model.am_components)
                          oc.App_model.cm_intents)
                      other.App_model.am_components
                  in
                  (not sends)
                  || Index.Pkgs.mem other.App_model.am_package senders)
                store)
          (* and therefore: everyone the app exactly interacts with is
             in its affected set *)
          &&
          let affected = Index.affected idx app in
          List.for_all
            (fun (other : App_model.t) ->
              let resolves_between x y =
                List.exists
                  (fun (c : App_model.component_model) ->
                    List.exists
                      (fun im ->
                        List.exists
                          (fun yc -> Separ_ame.Bundle.resolves_to im yc)
                          y.App_model.am_components)
                      c.App_model.cm_intents)
                  x.App_model.am_components
              in
              (not (resolves_between app other || resolves_between other app))
              || Index.Pkgs.mem other.App_model.am_package affected)
            store)
        store)

(* Hot update equals rebuild over arbitrary upload/update/remove
   interleavings: add everything, remove a pseudo-random subset,
   re-add modified versions of half of those. *)
let qcheck_index_update_equals_rebuild =
  prop "footprint hot update equals rebuild" 150
    (QCheck.pair arb_store QCheck.small_nat)
    (fun (store, salt) ->
      let idx = Index.create () in
      List.iter (Index.add idx) store;
      let doomed, kept =
        List.partition
          (fun (m : App_model.t) ->
            (Hashtbl.hash (m.App_model.am_package, salt) land 3) = 0)
          store
      in
      List.iter (Index.remove idx) doomed;
      let readded =
        List.filteri (fun i _ -> i mod 2 = 0) doomed
        |> List.map (fun (m : App_model.t) ->
               (* an "update": drop every second component *)
               {
                 m with
                 App_model.am_components =
                   List.filteri
                     (fun i _ -> i mod 2 = 0)
                     m.App_model.am_components;
               })
      in
      List.iter (Index.add idx) readded;
      Index.equal idx (Index.rebuild (kept @ readded)))

(* --- the serve store end to end -------------------------------------------- *)

(* Build the Figure-1 trio plus a quiet bystander, then update the
   messenger: the bystander must never be selected, and the selective
   store must agree with a freshly full-repaired one byte for byte. *)
let test_serve_selective_matches_full_repair () =
  let serve = Serve.create () in
  List.iter
    (fun apk -> Serve.submit serve (Serve.Upload apk))
    [
      Demo.navigation_app ();
      Demo.messenger_app ();
      Demo.relay_malware ();
      quiet_app ();
    ];
  let cold = Serve.drain serve in
  check_int "four verdicts" 4 (List.length cold);
  check_int "four apps in store" 4 (Serve.store_size serve);
  (* the quiet app's scope is itself *)
  Alcotest.(check (list string))
    "quiet scope is singleton" [ "com.quiet.app" ]
    (Serve.scope serve "com.quiet.app");
  check "relay scope sees navigation" true
    (List.mem "com.example.navigation" (Serve.scope serve "com.mal.relay"));
  (* update: the guarded messenger variant *)
  Serve.submit serve (Serve.Upload (Demo.messenger_app ~guarded:true ()));
  (match Serve.drain serve with
  | [ v ] ->
      check "update analyzed strictly fewer bundles than the store" true
        (v.Serve.vd_analyzed < v.Serve.vd_store_size);
      check "update did not select the quiet app" false
        (List.mem "com.quiet.app" v.Serve.vd_candidates);
      check "update re-analyzed the messenger itself" true
        (List.mem "com.example.messenger" v.Serve.vd_candidates)
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs));
  let selective = stripped_reports serve in
  let analyzed = Serve.full_repair serve in
  check_int "full repair analyzes the whole store" 4 analyzed;
  check "selective reports byte-identical to full repair" true
    (selective = stripped_reports serve);
  (* hot-updated index stayed equal to a from-scratch rebuild *)
  check "index hot update = rebuild" true
    (Index.equal (Serve.index serve) (Serve.rebuilt_index serve))

let test_serve_remove () =
  let serve = Serve.create () in
  List.iter
    (fun apk -> Serve.submit serve (Serve.Upload apk))
    [ Demo.navigation_app (); Demo.relay_malware (); quiet_app () ];
  ignore (Serve.drain serve : Serve.verdict list);
  let vulnerable_before =
    match Serve.report serve "com.example.navigation" with
    | Some r -> List.length r.Ase.r_vulnerabilities
    | None -> 0
  in
  check "hijack found while the relay is installed" true
    (vulnerable_before > 0);
  Serve.submit serve (Serve.Remove "com.mal.relay");
  (match Serve.drain serve with
  | [ v ] ->
      check "remove re-analyzed the old partners" true
        (List.mem "com.example.navigation" v.Serve.vd_candidates);
      check "remove did not select the quiet app" false
        (List.mem "com.quiet.app" v.Serve.vd_candidates)
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs));
  check_int "store shrank" 2 (Serve.store_size serve);
  check "removed app's report dropped" true
    (Serve.report serve "com.mal.relay" = None);
  (* with the relay gone the navigation app's scope is itself *)
  Alcotest.(check (list string))
    "navigation scope back to singleton" [ "com.example.navigation" ]
    (Serve.scope serve "com.example.navigation");
  let selective = stripped_reports serve in
  ignore (Serve.full_repair serve : int);
  check "post-remove reports identical to full repair" true
    (selective = stripped_reports serve);
  check "index hot update = rebuild after remove" true
    (Index.equal (Serve.index serve) (Serve.rebuilt_index serve))

let one_verdict serve =
  match Serve.drain serve with
  | [ v ] -> v
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs)

let figure1_store () =
  let serve = Serve.create () in
  List.iter
    (fun apk -> Serve.submit serve (Serve.Upload apk))
    [
      Demo.navigation_app ();
      Demo.messenger_app ();
      Demo.relay_malware ();
      quiet_app ();
    ];
  ignore (Serve.drain serve : Serve.verdict list);
  serve

(* Reports and index agree with a brute-force full repair and a
   rebuild. *)
let check_repaired what serve =
  let selective = stripped_reports serve in
  ignore (Serve.full_repair serve : int);
  check (what ^ ": reports identical to full repair") true
    (selective = stripped_reports serve);
  check (what ^ ": index hot update = rebuild") true
    (Index.equal (Serve.index serve) (Serve.rebuilt_index serve))

(* Re-uploading the same bytes extracts an equal model: nothing is
   dispatched and every report stays as it was, which is also what a
   full repair gives. *)
let test_serve_unchanged_reupload () =
  let serve = figure1_store () in
  let before = stripped_reports serve in
  Serve.submit serve (Serve.Upload (Demo.relay_malware ()));
  let v = one_verdict serve in
  check_int "unchanged re-upload analyzed nothing" 0 v.Serve.vd_analyzed;
  Alcotest.(check (list string)) "no candidates" [] v.Serve.vd_candidates;
  check_int "store size unchanged" 4 v.Serve.vd_store_size;
  check "reports unchanged by the re-upload" true
    (before = stripped_reports serve);
  check_repaired "after unchanged re-upload" serve

(* After an unchanged re-upload the store still follows real changes:
   an update, then a remove and a re-upload of the same bytes (a fresh
   upload, not an unchanged one). *)
let test_serve_changes_after_unchanged_reupload () =
  let serve = figure1_store () in
  Serve.submit serve (Serve.Upload (Demo.messenger_app ()));
  check_int "unchanged re-upload analyzed nothing" 0
    (one_verdict serve).Serve.vd_analyzed;
  Serve.submit serve (Serve.Upload (Demo.messenger_app ~guarded:true ()));
  check "update re-analyzed the messenger" true
    (List.mem "com.example.messenger" (one_verdict serve).Serve.vd_candidates);
  check_repaired "after update" serve;
  Serve.submit serve (Serve.Remove "com.mal.relay");
  ignore (one_verdict serve : Serve.verdict);
  Serve.submit serve (Serve.Upload (Demo.relay_malware ()));
  let v = one_verdict serve in
  check "re-upload after remove analyzed the relay" true
    (List.mem "com.mal.relay" v.Serve.vd_candidates);
  check "and its partner" true
    (List.mem "com.example.navigation" v.Serve.vd_candidates);
  check_repaired "after remove and re-upload" serve

(* A degraded report is re-run by the next unchanged re-upload that
   reaches it.  The failure is injected through a registered signature
   that raises while [broken] is set; the registry is global, so the
   scenario runs in a forked child that reports through its exit code
   and leaves the test process's registry as it was. *)
let test_serve_reupload_repairs_degraded () =
  let scenario () =
    let broken = ref true in
    let hijack = Signatures.intent_hijack in
    Signatures.register
      {
        hijack with
        Signatures.name = "test_flaky";
        formula =
          (fun env ->
            if !broken then failwith "injected" else hijack.Signatures.formula env);
      };
    let serve = Serve.create () in
    List.iter
      (fun apk -> Serve.submit serve (Serve.Upload apk))
      [ Demo.navigation_app (); Demo.relay_malware (); quiet_app () ];
    ignore (Serve.drain serve : Serve.verdict list);
    let degraded () =
      List.filter_map
        (fun (pkg, r) -> if r.Ase.r_degraded <> [] then Some pkg else None)
        (Serve.reports serve)
    in
    let all_degraded = degraded () = Serve.packages serve in
    broken := false;
    (* the relay reaches the navigation app but not the quiet one *)
    Serve.submit serve (Serve.Upload (Demo.relay_malware ()));
    let v = one_verdict serve in
    let repaired_reach =
      v.Serve.vd_candidates = [ "com.example.navigation"; "com.mal.relay" ]
      && degraded () = [ "com.quiet.app" ]
    in
    let selective = stripped_reports serve in
    ignore (Serve.full_repair serve : int);
    all_degraded && repaired_reach && degraded () = []
    && List.remove_assoc "com.quiet.app" selective
       = List.remove_assoc "com.quiet.app" (stripped_reports serve)
  in
  match Unix.fork () with
  | 0 -> Unix._exit (match scenario () with true -> 0 | false | (exception _) -> 1)
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "degraded reports were not re-run by the re-upload")

let tests =
  [
    Alcotest.test_case "index basics" `Quick test_index_basics;
    Alcotest.test_case "index: type-only intent vs hosted filter" `Quick
      test_index_type_only_vs_hosted_filter;
    Alcotest.test_case "index hot update = rebuild" `Quick
      test_index_hot_update_equals_rebuild;
    qcheck_index_superset;
    qcheck_index_update_equals_rebuild;
    Alcotest.test_case "selective = full repair (upload)" `Quick
      test_serve_selective_matches_full_repair;
    Alcotest.test_case "remove event" `Quick test_serve_remove;
    Alcotest.test_case "unchanged re-upload dispatches nothing" `Quick
      test_serve_unchanged_reupload;
    Alcotest.test_case "update, remove and re-upload after it" `Quick
      test_serve_changes_after_unchanged_reupload;
    Alcotest.test_case "unchanged re-upload re-runs degraded reports" `Quick
      test_serve_reupload_repairs_degraded;
  ]
