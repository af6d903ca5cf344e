(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe                     run every section
     dune exec bench/main.exe -- table1 fig5      the named sections
     dune exec bench/main.exe -- rq2 --bundles 20
     dune exec bench/main.exe -- --smoke cache    one section as a gate

   The sections are the [sections] table at the end of this file; an
   unknown argument prints them.  Each section returns its outcome (the
   BENCH_<name>.json body and named checks) and one runner does the
   rest: header, JSON file and, in smoke mode, exit 1 on any failed
   check. *)

open Separ
module Generator = Separ_workload.Generator
module Trace = Separ_obs.Trace
module Metrics = Separ_obs.Metrics
module Telemetry = Separ_report.Telemetry
module Json = Separ_report.Json
module Provenance = Separ_report.Provenance

(* What one section run produced, for the runner. *)
type outcome = {
  body : (string * Json.t) list;  (* BENCH_<name>.json fields; [] = no file *)
  checks : (bool * string) list;  (* (holds, what is wrong if it does not) *)
}

let outcome ?(body = []) ?(checks = []) () = { body; checks }

(* [--bundles N] / [--apps N], as parsed from the command line. *)
let options : (string * int) list ref = ref []
let opt name default = Option.value ~default (List.assoc_opt name !options)

let header title =
  Printf.printf "\n==================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================\n%!"

(* Collected once per process, so every BENCH_*.json snapshot of one
   bench run carries the same commit/host/timestamp stamp. *)
let provenance = lazy (Provenance.json (Provenance.collect ()))

(* Descriptive statistics come from the shared implementation so every
   table reports the same (nearest-rank) percentile estimator.  The
   confidence intervals use the sample (n-1) standard deviation and
   Student-t critical values — the paper's ±1.76% is a t-interval, and z
   = 1.96 with a population stddev understates the interval at n = 33. *)
let mean = Separ_report.Stats.mean
let percentile = Separ_report.Stats.percentile
let ci95 = Separ_report.Stats.ci95_halfwidth

(* --- Table I ---------------------------------------------------------------- *)

let table1 ~mode:_ =
  let rows = Separ_suites.Table1.run () in
  print_string (Separ_suites.Table1.render rows);
  Printf.printf "\n(paper: DidFail 55/37/44, AmanDroid 86/48/63, SEPAR 100/97/98)\n";
  outcome ()

(* --- shared corpus ------------------------------------------------------------ *)

let corpus = lazy (Generator.generate ())

(* The running example's two apps (paper §II), as a bundle. *)
let demo_apps () = [ Demo.navigation_app (); Demo.messenger_app () ]
let demo_bundle () = Bundle.of_models (List.map Extract.extract (demo_apps ()))

(* --- RQ2 ---------------------------------------------------------------------- *)

let rq2 ~mode:_ =
  let corpus = Lazy.force corpus in
  let bundles = Generator.bundles ~size:50 corpus in
  let chosen = List.filteri (fun i _ -> i < opt "--bundles" 80) bundles in
  Printf.printf "%d bundles of 50 apps\n%!" (List.length chosen);
  let tally : (string * string, unit) Hashtbl.t = Hashtbl.create 256 in
  Trace.with_span "bench.rq2" (fun () ->
      let t0 = Unix.gettimeofday () in
      List.iteri
        (fun bi bundle_apps ->
          Trace.with_span "bench.rq2.bundle" (fun () ->
              let models =
                List.map (fun g -> Extract.extract g.Generator.apk) bundle_apps
              in
              let bundle = Bundle.of_models models in
              let report = Ase.analyze ~limit_per_sig:40 bundle in
              List.iter
                (fun v ->
                  let kind =
                    match v.Ase.v_kind with
                    | "activity_launch" | "service_launch" ->
                        "Activity/Service launch"
                    | "intent_hijack" -> "Intent hijack"
                    | "information_leakage" -> "Information leakage"
                    | "privilege_escalation" -> "Privilege escalation"
                    | k -> k
                  in
                  List.iter
                    (fun app -> Hashtbl.replace tally (kind, app) ())
                    (Ase.vulnerable_apps report bundle v.Ase.v_kind))
                report.Ase.r_vulnerabilities);
          if (bi + 1) mod 10 = 0 then
            Printf.printf "  ... %d/%d bundles (%.0fs)\n%!" (bi + 1)
              (List.length chosen)
              (Unix.gettimeofday () -. t0))
        chosen);
  let count kind =
    Hashtbl.fold (fun (k, _) () acc -> if k = kind then acc + 1 else acc) tally 0
  in
  let scale = 80.0 /. float_of_int (List.length chosen) in
  Printf.printf "\n%-28s %-10s %-12s %s\n" "Category" "measured"
    "(scaled x80)" "paper";
  List.iter
    (fun (kind, paper) ->
      let m = count kind in
      Printf.printf "%-28s %-10d %-12.0f %d\n" kind m
        (float_of_int m *. scale)
        paper)
    [
      ("Intent hijack", 97);
      ("Activity/Service launch", 124);
      ("Information leakage", 128);
      ("Privilege escalation", 36);
    ];
  outcome ()

(* --- Figure 5 ------------------------------------------------------------------ *)

let fig5 ~mode:_ =
  let corpus =
    List.filteri (fun i _ -> i < opt "--apps" 4000) (Lazy.force corpus)
  in
  let samples, total_ms =
    Trace.timed "bench.fig5" (fun () ->
        List.map
          (fun g ->
            let model = Extract.extract g.Generator.apk in
            (g.Generator.store, model.App_model.am_size,
             model.App_model.am_extraction_ms))
          corpus)
  in
  let total_s = total_ms /. 1000.0 in
  (* per-store series *)
  Printf.printf "%-12s %6s %10s %10s %10s\n" "store" "apps" "mean size"
    "mean ms" "p95 ms";
  List.iter
    (fun store ->
      let mine = List.filter (fun (s, _, _) -> s = store) samples in
      if mine <> [] then
        Printf.printf "%-12s %6d %10.0f %10.2f %10.2f\n" store
          (List.length mine)
          (mean (List.map (fun (_, sz, _) -> float_of_int sz) mine))
          (mean (List.map (fun (_, _, ms) -> ms) mine))
          (percentile 0.95 (List.map (fun (_, _, ms) -> ms) mine)))
    [ "play"; "fdroid"; "malgenome"; "bazaar" ];
  (* the scatter, as size-bucketed series *)
  Printf.printf "\nsize bucket -> mean extraction ms (the Fig. 5 scatter):\n";
  let buckets = [ 0; 200; 400; 600; 900; 1200; 1600; 2200; 3000 ] in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | [ a ] -> [ (a, max_int) ]
    | [] -> []
  in
  List.iter
    (fun (lo, hi) ->
      let mine =
        List.filter (fun (_, sz, _) -> sz >= lo && sz < hi) samples
      in
      if mine <> [] then
        Printf.printf "  [%5d, %5s) n=%4d  %.2f ms\n" lo
          (if hi = max_int then "inf" else string_of_int hi)
          (List.length mine)
          (mean (List.map (fun (_, _, ms) -> ms) mine)))
    (pairs buckets);
  let all_ms = List.map (fun (_, _, ms) -> ms) samples in
  let under_2min =
    List.length (List.filter (fun ms -> ms < 120_000.0) all_ms)
  in
  Printf.printf
    "\ntotal: %.1fs for %d apps (linear in total size); %.1f%% of apps \
     under 2 minutes (paper: 95%%)\n%!"
    total_s (List.length samples)
    (100.0 *. float_of_int under_2min /. float_of_int (List.length samples));
  outcome ()

(* --- Table II ------------------------------------------------------------------- *)

let table2 ~mode:_ =
  let corpus = Lazy.force corpus in
  let bundles = Generator.bundles ~size:50 corpus in
  let chosen = List.filteri (fun i _ -> i < opt "--bundles" 10) bundles in
  Printf.printf "%d bundles of 50 apps\n%!" (List.length chosen);
  let rows =
    List.map
      (fun bundle_apps ->
        Trace.with_span "bench.table2.bundle" (fun () ->
            let models =
              List.map (fun g -> Extract.extract g.Generator.apk) bundle_apps
            in
            let bundle = Bundle.of_models models in
            let report = Ase.analyze ~limit_per_sig:40 bundle in
            let st = report.Ase.r_stats in
            Trace.add_attr "construction_ms"
              (Trace.Float report.Ase.r_construction_ms);
            Trace.add_attr "solving_ms" (Trace.Float report.Ase.r_solving_ms);
            ( float_of_int st.Bundle.n_components,
              float_of_int st.Bundle.n_intents,
              float_of_int st.Bundle.n_intent_filters,
              report.Ase.r_construction_ms /. 1000.0,
              report.Ase.r_solving_ms /. 1000.0 )))
      chosen
  in
  let avg f = mean (List.map f rows) in
  Printf.printf "%-14s %-10s %-14s %-18s %-14s\n" "Components" "Intents"
    "IntentFilters" "Construction(s)" "Analysis(s)";
  Printf.printf "%-14.0f %-10.0f %-14.0f %-18.2f %-14.2f\n"
    (avg (fun (c, _, _, _, _) -> c))
    (avg (fun (_, i, _, _, _) -> i))
    (avg (fun (_, _, f, _, _) -> f))
    (avg (fun (_, _, _, c, _) -> c))
    (avg (fun (_, _, _, _, s) -> s));
  Printf.printf "(paper:        313        322        148           260                57)\n";
  Printf.printf
    "shape check: construction dominates SAT solving, as in the paper: %b\n%!"
    (avg (fun (_, _, _, c, _) -> c) > avg (fun (_, _, _, _, s) -> s));
  outcome ()

(* --- RQ4 ------------------------------------------------------------------------- *)

(* A benchmark app that performs [n] startService ICC operations. *)
let rq4_apps n =
  let module B = Builder in
  let caller =
    B.cls ~name:"Caller"
      [
        B.meth ~name:"onCreate" ~params:1 (fun b ->
            for _ = 1 to n do
              let i = B.new_intent b in
              B.set_class_name b i "Callee";
              let v = B.const_str b "x" in
              B.put_extra b i ~key:"k" ~value:v;
              B.start_service b i
            done);
      ]
  in
  let callee =
    (* the callee does representative work, as a real service would *)
    B.cls ~name:"Callee"
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let v = B.get_string_extra b 0 ~key:"k" in
            let skip = B.fresh_label b in
            B.if_eqz b v skip;
            B.sput b ~field:"last" ~src:v;
            let w = B.sget b ~field:"last" in
            B.move b ~dst:0 ~src:w;
            B.place_label b skip;
            let done_ = B.const_str b "handled" in
            B.invoke b (Api.mref Api.c_notification "notify") [ done_ ]);
      ]
  in
  Apk.make
    ~manifest:
      (Manifest.make ~package:"bench.icc"
         ~components:
           [
             Component.make ~name:"Caller" ~kind:Component.Activity ();
             Component.make ~name:"Callee" ~kind:Component.Service
               ~exported:true ();
           ]
         ())
    ~classes:[ caller; callee ]

(* A benchmark app performing [n] non-ICC operations. *)
let rq4_non_icc_app n =
  let module B = Builder in
  Apk.make
    ~manifest:
      (Manifest.make ~package:"bench.cpu"
         ~components:[ Component.make ~name:"Worker" ~kind:Component.Activity () ]
         ())
    ~classes:
      [
        B.cls ~name:"Worker"
          [
            B.meth ~name:"onCreate" ~params:1 (fun b ->
                for k = 1 to n do
                  let v = B.const_str b (string_of_int k) in
                  B.sput b ~field:"acc" ~src:v
                done);
          ];
      ]

let demo_policies () =
  (* realistic policy store: the demo bundle's synthesized policies plus
     the benchmark component guarded by a prompt-on-foreign-sender rule *)
  let analysis = analyze (demo_apps ()) in
  analysis.policies
  @ [
      Policy.
        {
          p_id = "bench-guard";
          p_event = Icc_receive;
          p_conditions =
            [ Receiver_is "Callee"; Sender_app_not_installed ];
          p_action = Prompt;
          p_reason = "benchmark";
        };
    ]

let time_run apk ~pkg ~component ~enforcement ~policies =
  let d = Device.create () in
  Device.install d apk;
  if enforcement then begin
    Device.set_policies d policies [ "bench.icc"; "bench.cpu" ];
    Device.set_enforcement d true
  end;
  let (), ms =
    Trace.timed "bench.rq4.launch"
      ~attrs:[ Trace.attr_bool "enforcement" enforcement ]
      (fun () -> Device.start_component d ~pkg ~component)
  in
  ms /. 1000.0

let rq4 ~mode:_ =
  let n_ops = 2000 in
  let reps = 33 in
  let policies = demo_policies () in
  let apk = rq4_apps n_ops in
  (* warm up *)
  ignore (time_run apk ~pkg:"bench.icc" ~component:"Caller" ~enforcement:false ~policies);
  let run_icc enforcement =
    let xs =
      List.sort compare
        (List.init 3 (fun _ ->
             time_run apk ~pkg:"bench.icc" ~component:"Caller" ~enforcement
               ~policies))
    in
    List.nth xs 1
  in
  let overheads =
    List.init reps (fun k ->
        if k mod 2 = 0 then
          let base = run_icc false in
          let hooked = run_icc true in
          100.0 *. (hooked -. base) /. base
        else
          let hooked = run_icc true in
          let base = run_icc false in
          100.0 *. (hooked -. base) /. base)
  in
  let m = mean overheads in
  (* t(n-1) * s_{n-1} / sqrt n: the paper's ±1.76% is a Student-t
     interval, not a z interval over the population stddev *)
  let ci = ci95 overheads in
  Printf.printf
    "ICC-heavy workload (%d startService calls): overhead %.2f%% +- %.2f%% \
     at 95%% confidence\n"
    n_ops m ci;
  Printf.printf "  p50 %.2f%%  p95 %.2f%%  p99 %.2f%%\n"
    (percentile 0.50 overheads) (percentile 0.95 overheads)
    (percentile 0.99 overheads);
  Printf.printf "(paper: 11.80%% +- 1.76%%)\n";
  (* non-ICC calls: hooks only intercept ICC, so overhead must vanish *)
  let cpu = rq4_non_icc_app 60000 in
  ignore (time_run cpu ~pkg:"bench.cpu" ~component:"Worker" ~enforcement:false ~policies);
  let run_cpu enforcement =
    (* median of three to shed scheduler jitter *)
    let xs =
      List.sort compare
        (List.init 3 (fun _ ->
             time_run cpu ~pkg:"bench.cpu" ~component:"Worker" ~enforcement
               ~policies))
    in
    List.nth xs 1
  in
  let diffs =
    List.init reps (fun k ->
        (* alternate measurement order across repetitions *)
        if k mod 2 = 0 then
          let base = run_cpu false in
          let hooked = run_cpu true in
          100.0 *. (hooked -. base) /. base
        else
          let hooked = run_cpu true in
          let base = run_cpu false in
          100.0 *. (hooked -. base) /. base)
  in
  let md = mean diffs in
  let cid = ci95 diffs in
  Printf.printf
    "non-ICC workload: %.2f%% +- %.2f%% overhead (paper: no overhead on \
     non-ICC calls)\n"
    md cid;
  Printf.printf "  p50 %.2f%%  p95 %.2f%%  p99 %.2f%%\n%!"
    (percentile 0.50 diffs) (percentile 0.95 diffs) (percentile 0.99 diffs);
  outcome ()

(* --- the running example (E6) --------------------------------------------------- *)

let scenario ~mode:_ =
  let analysis = analyze (demo_apps ()) in
  List.iter
    (fun v ->
      Fmt.pr "--- %s ---@.%a@.@." v.Ase.v_kind Scenario.pp v.Ase.v_scenario)
    (vulnerabilities analysis);
  Fmt.pr "--- synthesized policies ---@.";
  List.iter (fun p -> Fmt.pr "%a@.@." Policy.pp p) (policies analysis);
  outcome ()

(* --- ablations -------------------------------------------------------------------- *)

let ablation_minimal ~mode:_ =
  let bundle = Bundle.update_passive_targets (demo_bundle ()) in
  let sig_ = List.hd (Signatures.all ()) in
  let measure minimal =
    let env =
      Separ_specs.Encode.build ~config:sig_.Signatures.config
        ~witnesses:sig_.Signatures.witnesses bundle
    in
    let problem =
      Separ_relog.Solve.
        {
          bounds = env.Separ_specs.Encode.bounds;
          constraints =
            env.Separ_specs.Encode.facts @ [ sig_.Signatures.formula env ];
        }
    in
    let session = Separ_relog.Solve.prepare problem in
    match Separ_relog.Solve.next ~minimal session with
    | Separ_relog.Solve.Sat inst ->
        (* count only free choices: tuples beyond the exact lower bounds *)
        let size =
          List.fold_left
            (fun acc rel ->
              let lower, _ =
                Separ_relog.Bounds.get env.Separ_specs.Encode.bounds rel
              in
              acc
              + Separ_relog.Tuple_set.size
                  (Separ_relog.Tuple_set.diff
                     (Separ_relog.Instance.value inst rel)
                     lower))
            0
            (Separ_relog.Instance.relations inst)
        in
        let sc = Signatures.decode sig_ env inst in
        let mf =
          match sc.Scenario.sc_mal_filter with
          | Some f ->
              List.length f.Scenario.mf_actions
              + List.length f.Scenario.mf_categories
          | None -> 0
        in
        (size, mf)
    | Separ_relog.Solve.Unsat | Separ_relog.Solve.Unknown -> (0, 0)
  in
  let min_size, min_f = measure true in
  let raw_size, raw_f = measure false in
  Printf.printf
    "scenario size (free tuples):  minimal=%d arbitrary=%d\n" min_size raw_size;
  Printf.printf
    "synthesized filter elements:  minimal=%d arbitrary=%d\n" min_f raw_f;
  Printf.printf
    "minimal scenarios are no larger, giving the most specific policies: %b\n%!"
    (min_size <= raw_size && min_f <= raw_f);
  outcome ()

let ablation_context ~mode:_ =
  (* a bundle containing the classic identity-helper trap *)
  let module B = Builder in
  let trap =
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
  in
  let count k1 =
    List.length (Separ_baselines.Separ_tool.analyze ~k1 [ trap ])
  in
  let fp_k1 = count true and fp_k0 = count false in
  Printf.printf "leak findings on the trap app: k=1 -> %d, k=0 -> %d\n" fp_k1 fp_k0;
  Printf.printf
    "k=1 avoids the false positive that k=0 reports: %b\n%!" (fp_k1 < fp_k0);
  outcome ()

let ablation_pruning ~mode:_ =
  let sample =
    List.map
      (fun apk -> Generator.{ apk; store = "suite"; injected = [] })
      (List.concat_map
         (fun c -> c.Separ_suites.Case.apks)
         (Separ_suites.Table1.all_cases ()))
    @ List.filteri (fun i _ -> i < 200) (Lazy.force corpus)
  in
  (* warm up allocator and caches so measurement order does not matter *)
  ignore (Extract.extract (List.hd sample).Generator.apk);
  let measure all_methods =
    let n_facts, ms =
      Trace.timed "bench.ablation_pruning"
        ~attrs:[ Trace.attr_bool "all_methods" all_methods ]
        (fun () ->
          List.fold_left
            (fun acc g ->
              let m = Extract.extract ~all_methods g.Generator.apk in
              acc
              + List.fold_left
                  (fun acc c ->
                    acc
                    + List.length c.App_model.cm_paths
                    + List.length c.App_model.cm_intents)
                  0 m.App_model.am_components)
            0 sample)
    in
    (ms /. 1000.0, n_facts)
  in
  let t_pruned, f_pruned = measure false in
  let t_all, f_all = measure true in
  Printf.printf "with pruning (SEPAR):    %.2fs, %d facts\n" t_pruned f_pruned;
  Printf.printf "without pruning (naive): %.2fs, %d facts\n" t_all f_all;
  Printf.printf
    "pruning removes dead-code facts (%d spurious) at comparable cost\n%!"
    (f_all - f_pruned);
  outcome ()

let flowbench ~mode:_ =
  print_string (Separ_suites.Flowbench.render ());
  outcome ()

let ablation_incremental ~mode:_ =
  let bundle_apps =
    List.filteri (fun i _ -> i < 50) (Lazy.force corpus)
    |> List.map (fun g -> g.Generator.apk)
  in
  let analysis, full_ms =
    Trace.timed "bench.incremental.full" (fun () -> analyze bundle_apps)
  in
  let t_full = full_ms /. 1000.0 in
  (* one app is updated (same package, new code) *)
  let changed = List.hd bundle_apps in
  let _, incr_ms =
    Trace.timed "bench.incremental.reanalyze" (fun () ->
        reanalyze analysis ~changed:[ changed ])
  in
  let t_incr = incr_ms /. 1000.0 in
  Printf.printf "full analysis of 50 apps:        %.2fs\n" t_full;
  Printf.printf "re-analysis after 1 app changed: %.2fs (%.1fx faster extraction+synthesis)\n%!"
    t_incr (t_full /. t_incr);
  outcome ()

(* --- solver benchmark (BENCH_solver.json) --------------------------------------- *)

(* Pigeonhole principle: [p] pigeons in [h] holes — unsat when p > h.  A
   classic conflict-heavy instance that exercises clause learning, learnt
   minimization and database reduction. *)
let pigeonhole p h =
  let var pi hi = (pi * h) + hi + 1 in
  let some_hole = List.init p (fun pi -> List.init h (fun hi -> var pi hi)) in
  let no_share =
    List.concat_map
      (fun hi ->
        let rec pairs = function
          | [] -> []
          | a :: rest ->
              List.map (fun b -> [ -var a hi; -var b hi ]) rest @ pairs rest
        in
        pairs (List.init p Fun.id))
      (List.init h Fun.id)
  in
  some_hole @ no_share

let random_3sat rand nv nc =
  List.init nc (fun _ ->
      List.init 3 (fun _ ->
          let v = 1 + Random.State.int rand nv in
          if Random.State.bool rand then v else -v))

(* The three solver kernels behind BENCH_solver.json:
   - workload: the Table II kernel (encode + enumerate the demo bundle's
     exploit scenarios across all signatures)
   - pigeonhole: pure CDCL stress, guaranteed learnt-db churn
   - enumeration: Aluminum-style minimal-model enumeration on random
     3-SAT, driven purely by assumptions (no activation literal) *)
let solver ~mode =
  let module S = Separ_sat.Solver in
  (* The solver section always runs with telemetry on so
     BENCH_solver.json carries its per-phase breakdown; previous state is
     restored on the way out so the smoke gate leaves no residue. *)
  let was_tracing = Trace.is_enabled () and was_metrics = Metrics.is_enabled () in
  Trace.enable ();
  Metrics.enable ();
  let (report, php_result, php_stats, scenarios, enum_stats), elapsed_ms =
    Trace.timed "bench.solver" (fun () ->
        (* Table II workload: the demo bundle through the full ASE
           pipeline. *)
        let report =
          Trace.with_span "bench.solver.workload" (fun () ->
              let limit = if mode = "smoke" then 4 else 16 in
              Ase.analyze ~limit_per_sig:limit (demo_bundle ()))
        in
        (* Pigeonhole stress. *)
        let php_result, php_stats =
          Trace.with_span "bench.solver.pigeonhole" (fun () ->
              let php = S.create () in
              List.iter (S.add_clause php) (pigeonhole 8 7);
              let r = S.solve php in
              (r, S.stats_record php))
        in
        (* Minimal-model enumeration stress. *)
        let scenarios, enum_stats =
          Trace.with_span "bench.solver.enumeration" (fun () ->
              let rand = Random.State.make [| 2026 |] in
              let nv = 40 in
              let enum = S.create () in
              List.iter (S.add_clause enum) (random_3sat rand nv 140);
              let scenarios =
                Separ_sat.Models.enumerate_minimal ~limit:24 enum
                  ~soft:(List.init nv (fun i -> i + 1))
              in
              (scenarios, S.stats_record enum))
        in
        (report, php_result, php_stats, scenarios, enum_stats))
  in
  let telemetry = Telemetry.telemetry_json () in
  if not was_tracing then Trace.disable ();
  if not was_metrics then Metrics.disable ();
  let elapsed = elapsed_ms /. 1000.0 in
  let solver = Separ_report.Report.of_solver_stats in
  let total f = f report.Ase.r_solver + f php_stats + f enum_stats in
  (* Kernel throughput: conflicts/s measures learning+backtracking speed,
     propagations/s the watcher hot path — the two rates the flat-arena
     kernel is tuned for. *)
  let per_sec n = if elapsed > 0.0 then float_of_int n /. elapsed else 0.0 in
  let conflicts_per_sec = per_sec (total (fun s -> s.S.s_conflicts)) in
  let props_per_sec = per_sec (total (fun s -> s.S.s_propagations)) in
  Printf.printf
    "solver kernels (%.1fs): %d conflicts, %d propagations, %d learnt-db \
     reductions (%d clauses deleted), %d literals minimized, activation \
     vars retired %d\n  throughput: %.0f conflicts/s, %.0f propagations/s\n%!"
    elapsed
    (total (fun s -> s.S.s_conflicts))
    (total (fun s -> s.S.s_propagations))
    (total (fun s -> s.S.s_db_reductions))
    (total (fun s -> s.S.s_learnts_deleted))
    (total (fun s -> s.S.s_lits_minimized))
    (total (fun s -> s.S.s_act_retired))
    conflicts_per_sec props_per_sec;
  outcome
    ~body:
      [
        ("elapsed_s", Json.Float elapsed);
        ("telemetry", telemetry);
        ( "workload",
          Json.Obj
            [
              ("construction_ms", Json.Float report.Ase.r_construction_ms);
              ("solving_ms", Json.Float report.Ase.r_solving_ms);
              ( "vulnerabilities",
                Json.Int (List.length report.Ase.r_vulnerabilities) );
              ("solver", solver report.Ase.r_solver);
            ] );
        ( "pigeonhole_8_7",
          Json.Obj
            [
              ( "result",
                Json.Str
                  (match php_result with
                  | S.Sat -> "sat"
                  | S.Unsat -> "unsat"
                  | S.Unknown -> "unknown") );
              ("solver", solver php_stats);
            ] );
        ( "enumeration",
          Json.Obj
            [
              ("scenarios", Json.Int (List.length scenarios));
              ("solver", solver enum_stats);
            ] );
        ("conflicts_per_sec", Json.Float conflicts_per_sec);
        ("propagations_per_sec", Json.Float props_per_sec);
      ]
      (* the learnt-db reduction, clause minimization and activation
         hygiene the kernels are tuned for must keep firing *)
    ~checks:
      [
        (php_result = S.Unsat, "pigeonhole 8/7 must be unsat");
        ( php_stats.S.s_db_reductions > 0,
          "learnt-db reductions did not fire on the pigeonhole stress" );
        ( php_stats.S.s_conflicts < 500_000,
          "pigeonhole 8/7 took an absurd number of conflicts" );
        ( php_stats.S.s_lits_minimized > 0,
          "learnt-clause minimization removed no literals" );
        ( report.Ase.r_vulnerabilities <> [],
          "demo bundle produced no exploit scenarios" );
        (scenarios <> [], "enumeration kernel produced no scenarios");
        ( enum_stats.S.s_act_live = 0
          && enum_stats.S.s_act_retired <= List.length scenarios + 1,
          "activation literals leak again (one per shrink round?)" );
      ]
    ()

(* A report with its performance fields zeroed, serialized: the
   comparable "what was found" view.  Runs that differ only in how the
   analysis ran ([-j], cache) must agree on this byte-for-byte. *)
let stripped_report_string report =
  Separ_report.Report.to_string
    ~report:(Ase.strip_performance report)
    ~policies:[] ()

(* --- parallel synthesis (BENCH_parallel.json) ------------------------------ *)

(* Comparable view of an analysis across [-j N]: kind + description of
   every scenario, in report order. *)
let scenario_keys (report : Ase.report) =
  List.map
    (fun v -> (v.Ase.v_kind, v.Ase.v_scenario.Scenario.sc_description))
    report.Ase.r_vulnerabilities

module Pool = Separ_exec.Pool

(* The Table I cases, or the first six of them in smoke mode. *)
let table1_cases ~mode =
  let all = Separ_suites.Table1.all_cases () in
  if mode = "smoke" then List.filteri (fun i _ -> i < 6) all else all

(* The Table I workload (one bundle per DroidBench/ICC-Bench case) run
   through ASE at increasing worker-pool widths, sharded across
   *bundles* first (Ase.analyze_many): one pool run serves all the cases
   per width, one task per wire message, on workers forked once per
   process.  Every width must produce the identical scenario sets, and
   forks over the whole sequence of runs must stay within the widest
   pool, whatever the task count.  -j 1 and -j 2 are timed as
   medians of [repeats] alternated runs; on hosts with at least two
   cores -j 2 must not be slower (single-core hosts print an explicit
   SKIPPED line instead).  The demo bundle then checks -j determinism
   directly and that a zero conflict budget degrades every searching
   signature (terminating, no scenarios) rather than hang or crash. *)
let parallel ~mode =
  let cases = table1_cases ~mode in
  let bundles =
    List.map
      (fun (c : Separ_suites.Case.t) ->
        ( c.Separ_suites.Case.name,
          Bundle.of_models
            (List.map Extract.extract c.Separ_suites.Case.apks) ))
      cases
  in
  let widths = [ 1; 2; 4 ] in
  let run_width jobs =
    let reports, ms =
      Trace.timed "bench.parallel"
        ~attrs:[ Trace.attr_int "jobs" jobs ]
        (fun () -> Ase.analyze_many ~jobs (List.map snd bundles))
    in
    (reports, ms, Pool.last_run_stats ())
  in
  let first =
    List.map
      (fun jobs ->
        let reports, ms, pool = run_width jobs in
        let keys =
          List.map2
            (fun (name, _) report ->
              (name, scenario_keys report, report.Ase.r_degraded))
            bundles reports
        in
        (jobs, keys, ms, pool))
      widths
  in
  (* One sample is at the mercy of the scheduler, and under `dune
     runtest` the other gates share the host: time -j 1 and -j 2, the
     pair the speed check compares, [repeats] times, alternating which
     runs first, and keep the medians.  -j 4 keeps its one sample, so
     the gate adds no 4-worker bursts to the gates running beside it.
     Scenario sets and the printed per-width pool counts come from the
     first round. *)
  let repeats = 5 in
  let more =
    List.concat
      (List.init (repeats - 1) (fun round ->
           let order = if round mod 2 = 0 then [ 2; 1 ] else [ 1; 2 ] in
           List.map
             (fun jobs ->
               let _, ms, pool = run_width jobs in
               (jobs, ms, pool))
             order))
  in
  let runs =
    List.map
      (fun (jobs, keys, ms, pool) ->
        let samples =
          ms
          :: List.filter_map
               (fun (j, m, _) -> if j = jobs then Some m else None)
               more
        in
        (jobs, keys, percentile 0.50 samples, pool))
      first
  in
  let _, base_keys, base_ms, _ = List.hd runs in
  let identical =
    List.for_all (fun (_, keys, _, _) -> keys = base_keys) (List.tl runs)
  in
  let degradations =
    List.concat_map (fun (_, keys, _, _) ->
        List.concat_map (fun (_, _, d) -> d) keys)
      runs
  in
  let speedup_at jobs =
    match List.find_opt (fun (j, _, _, _) -> j = jobs) runs with
    | Some (_, _, ms, _) when ms > 0.0 -> base_ms /. ms
    | _ -> 0.0
  in
  (* On a single-core host every extra worker can only time-slice, so
     the recorded speedup is necessarily <= 1 there; the core count is
     part of the record so readers can interpret the ratios. *)
  let cores = Domain.recommended_domain_count () in
  List.iter
    (fun (jobs, _, ms, (pool : Pool.run_stats)) ->
      Printf.printf
        "-j %d: %7.1f ms (speedup %.2fx, %d forks, %d tasks)\n"
        jobs ms
        (if ms > 0.0 then base_ms /. ms else 0.0)
        pool.Pool.rs_forks pool.Pool.rs_tasks)
    runs;
  Printf.printf "scenario sets identical across -j: %b\n" identical;
  if cores = 1 then
    Printf.printf
      "(single-core host: workers time-slice one CPU, speedup <= 1 expected; \
       speed check SKIPPED)\n";
  Printf.printf "%!";
  (* Forks must track the pool, not the workload: workers live for the
     process, so over every run of this section together the forks stay
     within the widest pool requested plus respawns, and crash-free runs
     need no respawn. *)
  let pool_checks =
    let stats =
      List.map (fun (_, _, _, pool) -> pool) first
      @ List.map (fun (_, _, pool) -> pool) more
    in
    let total f =
      List.fold_left (fun acc (pool : Pool.run_stats) -> acc + f pool) 0 stats
    in
    let forks = total (fun p -> p.Pool.rs_forks)
    and respawns = total (fun p -> p.Pool.rs_respawns)
    and widest = List.fold_left max 1 widths in
    [
      ( forks <= widest + respawns,
        Printf.sprintf
          "%d runs forked %d workers (want <= widest pool %d + %d respawns)"
          (List.length stats) forks widest respawns );
      ( respawns = 0,
        Printf.sprintf "%d workers respawned in crash-free runs" respawns );
    ]
  in
  (* The regression the speed check exists to catch: parallel slower
     than sequential, only meaningful when two workers can run at once. *)
  let speed_checks =
    if cores < 2 then []
    else
      [
        ( speedup_at 2 >= 1.0,
          Printf.sprintf "-j 2 is slower than -j 1 (speedup %.2fx) on a \
                          %d-core host"
            (speedup_at 2) cores );
      ]
  in
  let demo = demo_bundle () in
  let seq = Ase.analyze ~jobs:1 demo in
  (* Worker metrics merge into the parent, so a worker that forked would
     show in [pool.forks] on top of the parent's own forks. *)
  let forks_counter = Metrics.counter "pool.forks" in
  let metrics_were_on = Metrics.is_enabled () in
  Metrics.enable ();
  let forks_before = Metrics.counter_value forks_counter in
  let par = Ase.analyze ~jobs:2 demo in
  let worker_forks =
    Metrics.counter_value forks_counter - forks_before
    - (Pool.last_run_stats ()).Pool.rs_forks
  in
  if not metrics_were_on then Metrics.disable ();
  let budget =
    { Separ_sat.Solver.b_max_conflicts = Some 0; b_max_time_ms = None }
  in
  let starved_checks jobs =
    let starved = Ase.analyze ~jobs ~budget demo in
    [
      ( starved.Ase.r_vulnerabilities = [],
        "zero-budget analysis still produced scenarios" );
      ( starved.Ase.r_degraded <> [],
        "zero-budget analysis recorded no degraded signatures" );
    ]
    @ List.map
        (fun (d : Ase.degraded) ->
          ( d.Ase.d_reason = "budget_exhausted",
            "unexpected degradation reason: " ^ d.Ase.d_reason ))
        starved.Ase.r_degraded
  in
  outcome
    ~body:
      [
        ("cpu_cores", Json.Int cores);
        ("cases", Json.Int (List.length bundles));
        ("timing_repeats", Json.Int repeats);
        ( "runs",
          Json.List
            (List.map
               (fun (jobs, keys, ms, (pool : Pool.run_stats)) ->
                 Json.Obj
                   [
                     ("jobs", Json.Int jobs);
                     ("wall_ms", Json.Float ms);
                     ( "scenarios",
                       Json.Int
                         (List.fold_left
                            (fun acc (_, ks, _) -> acc + List.length ks)
                            0 keys) );
                     ("forks", Json.Int pool.Pool.rs_forks);
                     ("respawns", Json.Int pool.Pool.rs_respawns);
                   ])
               runs) );
        ("identical_scenario_sets", Json.Bool identical);
        ("degraded_signatures", Json.Int (List.length degradations));
        ("speedup_at_2", Json.Float (speedup_at 2));
        ("speedup_at_4", Json.Float (speedup_at 4));
      ]
    ~checks:
      ([
         (identical, "scenario sets differ across -j widths");
         ( degradations = [],
           "un-budgeted parallel run reported degraded signatures" );
       ]
      @ pool_checks
      @ [
          ( worker_forks = 0,
            Printf.sprintf "pool workers forked %d processes" worker_forks );
        ]
      @ speed_checks
      @ [
          (seq.Ase.r_vulnerabilities <> [], "demo bundle produced no scenarios");
          ( scenario_keys seq = scenario_keys par,
            "demo bundle scenario sets differ between -j 1 and -j 2" );
        ]
      @ List.concat_map starved_checks [ 1; 2 ])
    ()

(* --- persistent cache (BENCH_cache.json) ----------------------------------- *)

(* A not-yet-existing temporary path for a cache directory to be created
   in. *)
let fresh_cache_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  dir

(* A probe app whose two variants differ only in one sensitive
   source-to-sink path inside its (filterless) service — the "one app
   changed" edit of the cross-run scenario.  The edit is invisible to
   path-blind signatures (intent_hijack keeps its cached verdict) but
   must invalidate every path-sensitive one. *)
let cache_probe_app ~extra_path () =
  let module B = Builder in
  let body =
    B.meth ~name:"onStartCommand" ~params:1 (fun b ->
        if extra_path then
          let v = B.get_location b in
          B.write_log b ~payload:v)
  in
  Apk.make
    ~manifest:
      (Manifest.make ~package:"com.cache.probe"
         ~uses_permissions:[ Permission.access_fine_location ]
         ~components:[ Component.make ~name:"Probe" ~kind:Component.Service () ]
         ())
    ~classes:[ B.cls ~name:"Probe" [ body ] ]

(* The Table I workload (each bundle augmented with the probe app)
   analyzed three times through one on-disk cache: cold (empty cache),
   warm (nothing changed), and with the probe's path edited (one app
   changed).  A from-scratch pass over the edited workload is the
   correctness reference.  A warm re-run must miss no ASE verdict and
   run no relational translation and no SAT solve, yet reproduce the
   cold stripped reports byte-for-byte; the edit must re-solve only the
   signatures whose delta footprint sees it (some hits AND some misses),
   again byte-identical to the reference.  Extraction is not cached: it
   runs on every pass. *)
let cache ~mode =
  let cases = table1_cases ~mode in
  let workload ~extra_path =
    List.map
      (fun (c : Separ_suites.Case.t) ->
        c.Separ_suites.Case.apks @ [ cache_probe_app ~extra_path () ])
      cases
  in
  Metrics.enable ();
  (* One pass over every bundle through one cache handle: the stripped
     reports, the wall time, and what actually ran. *)
  let pass ?cache apk_lists =
    Metrics.reset ();
    let reports, wall_ms =
      Trace.timed "bench.cache_pass" (fun () ->
          List.map
            (fun apks ->
              let bundle = Bundle.of_models (List.map Extract.extract apks) in
              Ase.analyze ?cache bundle)
            apk_lists)
    in
    let count name = Metrics.counter_value (Metrics.counter name) in
    ( List.map stripped_report_string reports,
      wall_ms,
      count "relog.translations",
      count "sat.solves" )
  in
  let stat cache name = List.assoc name (Cache.stats cache) in
  let dir = fresh_cache_dir "separ_cache_bench" in
  let cold_cache = Cache.open_ ~dir () in
  let cold_reports, cold_ms1, cold_translations, cold_solves =
    pass ~cache:cold_cache (workload ~extra_path:false)
  in
  let warm_cache = Cache.open_ ~dir () in
  let warm_reports, warm_ms, warm_translations, warm_solves =
    pass ~cache:warm_cache (workload ~extra_path:false)
  in
  let changed_cache = Cache.open_ ~dir () in
  let changed_reports, changed_ms1, changed_translations, changed_solves =
    pass ~cache:changed_cache (workload ~extra_path:true)
  in
  (* One sample per side is at the mercy of the scheduler: time cold and
     one-app-changed [repeats] times, alternating, each pair through a
     fresh cache directory, and report the medians. *)
  let repeats = 5 in
  let more =
    List.init (repeats - 1) (fun _ ->
        let dir = fresh_cache_dir "separ_cache_bench" in
        let _, cold_ms, _, _ =
          pass ~cache:(Cache.open_ ~dir ()) (workload ~extra_path:false)
        in
        let _, changed_ms, _, _ =
          pass ~cache:(Cache.open_ ~dir ()) (workload ~extra_path:true)
        in
        (cold_ms, changed_ms))
  in
  let cold_ms = percentile 0.50 (cold_ms1 :: List.map fst more) in
  let changed_ms = percentile 0.50 (changed_ms1 :: List.map snd more) in
  (* reference: the edited workload from scratch, no cache *)
  let scratch_reports, _, _, _ = pass (workload ~extra_path:true) in
  let warm_identical = cold_reports = warm_reports in
  let changed_identical = changed_reports = scratch_reports in
  let changed_hits = stat changed_cache "hits" in
  let changed_misses = stat changed_cache "misses" in
  let phase_json ms translations solves cache =
    Json.Obj
      ([
         ("wall_ms", Json.Float ms);
         ("relog_translations", Json.Int translations);
         ("sat_solves", Json.Int solves);
       ]
      @ List.map (fun (k, v) -> ("cache." ^ k, Json.Int v)) (Cache.stats cache))
  in
  let speedup over = if over > 0.0 then cold_ms /. over else 0.0 in
  Printf.printf
    "cold:    %7.1f ms  (%d translations, %d solves)\n\
     warm:    %7.1f ms  (%d translations, %d solves, %.1fx)\n\
     changed: %7.1f ms  (%d translations, %d solves, %.1fx)\n"
    cold_ms cold_translations cold_solves warm_ms warm_translations
    warm_solves (speedup warm_ms) changed_ms changed_translations
    changed_solves (speedup changed_ms);
  Printf.printf "changed run: %d ASE verdicts from cache, %d re-solved\n"
    changed_hits changed_misses;
  Printf.printf "stripped reports identical (warm %b, changed %b)\n%!"
    warm_identical changed_identical;
  outcome
    ~body:
      [
        ("cases", Json.Int (List.length cases));
        ("signatures", Json.Int (List.length (Signatures.all ())));
        ("timing_repeats", Json.Int repeats);
        ("cold", phase_json cold_ms cold_translations cold_solves cold_cache);
        ("warm", phase_json warm_ms warm_translations warm_solves warm_cache);
        ( "one_app_changed",
          phase_json changed_ms changed_translations changed_solves
            changed_cache );
        ("warm_identical_stripped_reports", Json.Bool warm_identical);
        ("changed_identical_stripped_reports", Json.Bool changed_identical);
        ("warm_speedup", Json.Float (speedup warm_ms));
        ("changed_speedup", Json.Float (speedup changed_ms));
      ]
    ~checks:
      [
        (warm_identical, "warm stripped reports differ from cold");
        ( stat warm_cache "misses" = 0,
          Printf.sprintf "warm run missed %d ASE verdicts (expected 0)"
            (stat warm_cache "misses") );
        ( warm_translations = 0,
          Printf.sprintf "warm run ran %d relational translations (expected 0)"
            warm_translations );
        ( warm_solves = 0,
          Printf.sprintf "warm run ran %d SAT solves (expected 0)" warm_solves
        );
        (stat warm_cache "hits" > 0, "warm run recorded no ASE cache hits");
        ( changed_hits > 0,
          "one-app-changed run kept no cached verdicts (expected path-blind \
           hits)" );
        ( changed_misses > 0,
          "one-app-changed run re-solved nothing (expected path-sensitive \
           misses)" );
        ( changed_identical,
          "one-app-changed stripped reports differ from the from-scratch \
           reference" );
        ( warm_ms < cold_ms,
          Printf.sprintf "warm run not faster than cold (%.1f >= %.1f ms)"
            warm_ms cold_ms );
        ( changed_ms < cold_ms,
          Printf.sprintf
            "one-app-changed run not faster than cold (%.1f >= %.1f ms)"
            changed_ms cold_ms );
      ]
    ()

(* --- serve: the app-store daemon ------------------------------------------- *)

(* A synthetic store of N generated apps streamed into the daemon, then
   K "updates": the same packages regenerated under a different seed, so
   each upload genuinely changes the app's body (and usually its
   footprint).  Selective re-analysis must reproduce a brute-force full
   repair byte for byte (stripped reports) while dispatching strictly
   fewer scope bundles.  Both are timed cold: the update stream sees
   only new content, and the repair runs in its own daemon whose cache
   directory is emptied after an untimed ingest of the final store.  A
   third daemon replaying the final store through the update stream's
   cache directory measures the warm path and must agree too, and every
   hot-updated footprint index must equal a from-scratch rebuild. *)
let serve ~mode =
  let n, k = if mode = "smoke" then (8, 2) else (24, 6) in
  let profile =
    {
      Generator.store = "serve";
      count = n;
      size_lo = 40;
      size_hi = 160;
      rate_hijack = 0.2;
      rate_launch = 0.2;
      rate_privesc = 0.1;
      rate_leak = 0.2;
    }
  in
  let apks gen = List.map (fun g -> g.Generator.apk) gen in
  let initial = apks (Generator.generate ~profiles:[ profile ] ()) in
  let regenerated = apks (Generator.generate ~seed:7 ~profiles:[ profile ] ()) in
  let updates =
    List.filteri (fun i _ -> i mod (max 1 (n / k)) = 0) regenerated
    |> List.filteri (fun i _ -> i < k)
  in
  let dir = fresh_cache_dir "separ_serve_bench" in
  let stripped serve =
    List.map
      (fun (pkg, r) -> (pkg, stripped_report_string r))
      (Serve.reports serve)
  in
  let cache = Cache.open_ ~dir () in
  let serve = Serve.create ~cache () in
  List.iter (fun apk -> Serve.submit serve (Serve.Upload apk)) initial;
  let cold_verdicts, cold_ms =
    Trace.timed "bench.serve_cold" (fun () -> Serve.drain serve)
  in
  List.iter (fun apk -> Serve.submit serve (Serve.Upload apk)) updates;
  let update_verdicts, update_ms =
    Trace.timed "bench.serve_updates" (fun () -> Serve.drain serve)
  in
  let selective_reports = stripped serve in
  let final_store =
    List.map
      (fun apk ->
        match
          List.find_opt (fun u -> Apk.package u = Apk.package apk) updates
        with
        | Some updated -> updated
        | None -> apk)
      initial
  in
  (* cold full repair: ingest the final store into a daemon over a fresh
     cache directory, then delete every entry the ingest wrote, so the
     timed repair pays the same misses and stores as the update stream *)
  let repair_dir = fresh_cache_dir "separ_serve_bench" in
  let repair = Serve.create ~cache:(Cache.open_ ~dir:repair_dir ()) () in
  List.iter (fun apk -> Serve.submit repair (Serve.Upload apk)) final_store;
  ignore (Serve.drain repair);
  Array.iter
    (fun entry -> Sys.remove (Filename.concat repair_dir entry))
    (Sys.readdir repair_dir);
  let (_ : int), repair_ms =
    Trace.timed "bench.serve_repair" (fun () -> Serve.full_repair repair)
  in
  let reference = stripped repair in
  (* warm replay: a fresh daemon ingests the final store through the
     update stream's cache directory *)
  let serve2 = Serve.create ~cache:(Cache.open_ ~dir ()) () in
  List.iter (fun apk -> Serve.submit serve2 (Serve.Upload apk)) final_store;
  let (_ : Serve.verdict list), warm_ms =
    Trace.timed "bench.serve_warm" (fun () -> Serve.drain serve2)
  in
  let latencies =
    List.map
      (fun v -> v.Serve.vd_latency_ms)
      (cold_verdicts @ update_verdicts)
  in
  let selected =
    List.fold_left (fun acc v -> acc + v.Serve.vd_analyzed) 0 update_verdicts
  in
  let dispatch_full = List.length updates * n in
  let selective =
    update_verdicts <> []
    && List.for_all
         (fun v -> v.Serve.vd_analyzed < v.Serve.vd_store_size)
         update_verdicts
  in
  let identical = selective_reports = reference in
  let warm_identical = stripped serve2 = reference in
  let index_consistent =
    List.for_all
      (fun d -> Footprint.equal (Serve.index d) (Serve.rebuilt_index d))
      [ serve; repair; serve2 ]
  in
  let p50_ms = percentile 0.50 latencies and p99_ms = percentile 0.99 latencies in
  let apps_per_sec =
    if cold_ms > 0.0 then float_of_int n /. (cold_ms /. 1000.0) else 0.0
  in
  Printf.printf
    "store:   %d apps ingested cold in %.1f ms (%.1f apps/s)\n\
     updates: %d uploads re-analyzed %d bundles (full repair: %d) in %.1f ms\n\
     repair:  %.1f ms (cold)   warm replay: %.1f ms\n\
     latency: p50 %.1f ms  p99 %.1f ms (upload -> verdict)\n"
    n cold_ms apps_per_sec (List.length updates) selected dispatch_full
    update_ms repair_ms warm_ms p50_ms p99_ms;
  Printf.printf
    "stripped reports identical (selective %b, warm %b), index consistent %b\n%!"
    identical warm_identical index_consistent;
  outcome
    ~body:
      [
        ("store_apps", Json.Int n);
        ("updates", Json.Int (List.length updates));
        ("bundles_selected", Json.Int selected);
        ("bundles_full_repair", Json.Int dispatch_full);
        ("selective", Json.Bool selective);
        ("identical_stripped_reports", Json.Bool identical);
        ("warm_identical_stripped_reports", Json.Bool warm_identical);
        ("index_consistent", Json.Bool index_consistent);
        ("cold_ms", Json.Float cold_ms);
        ("update_stream_ms", Json.Float update_ms);
        ("full_repair_ms", Json.Float repair_ms);
        ("warm_ms", Json.Float warm_ms);
        ("upload_to_verdict_p50_ms", Json.Float p50_ms);
        ("upload_to_verdict_p99_ms", Json.Float p99_ms);
        ("cold_apps_per_sec", Json.Float apps_per_sec);
      ]
    ~checks:
      [
        (identical, "selective stripped reports differ from the full-repair \
                     reference");
        ( selective,
          "an update re-analyzed the whole store (expected a strict subset)" );
        ( selected < dispatch_full,
          Printf.sprintf
            "update stream dispatched %d bundles, full repair would dispatch %d"
            selected dispatch_full );
        ( warm_identical,
          "warm replay through the cache produced different stripped reports" );
        ( index_consistent,
          "hot-updated footprint index differs from a from-scratch rebuild" );
      ]
    ()

(* --- compiled PDP (BENCH_enforce.json) -------------------------------------- *)

(* A synthetic store of [rules] ECA policies: the four derived shapes
   (privilege escalation, launch, hijack, leak) permuted over a
   generated app population whose size scales with the store — the way
   real per-component policies accumulate.  Deterministically seeded,
   so every run at a given size sees the same store. *)
let enforce_pop rules = max 4 (rules / 4)

let enforce_store ~rules st =
  let pop = enforce_pop rules in
  let svc i = "Svc" ^ string_of_int i in
  let cmp i = "Cmp" ^ string_of_int i in
  let act i = "com.bench.ACT" ^ string_of_int i in
  let perms = Array.of_list Permission.all in
  let resources = Array.of_list Resource.all in
  let pick arr = arr.(Random.State.int st (Array.length arr)) in
  let rnd () = Random.State.int st pop in
  List.init rules (fun i ->
      let mk event conds action =
        Policy.
          {
            p_id = Printf.sprintf "synth-%d" i;
            p_event = event;
            p_conditions = conds;
            p_action = action;
            p_reason = "synthesized";
          }
      in
      match i mod 4 with
      | 0 ->
          mk Policy.Icc_receive
            [
              Policy.Receiver_is (svc (rnd ()));
              Policy.Sender_lacks_permission (pick perms);
            ]
            Policy.Deny
      | 1 ->
          mk Policy.Icc_receive
            [
              Policy.Receiver_is (svc (rnd ()));
              Policy.Sender_app_not_installed;
            ]
            Policy.Prompt
      | 2 ->
          mk Policy.Icc_send
            [
              Policy.Sender_is (cmp (rnd ()));
              Policy.Implicit;
              Policy.Action_is (act (rnd ()));
              Policy.Receiver_not_in [ svc (rnd ()); svc (rnd ()) ];
            ]
            Policy.Prompt
      | _ ->
          mk Policy.Icc_receive
            [
              Policy.Extras_include (pick resources);
              Policy.Receiver_is (svc (rnd ()));
            ]
            Policy.Deny)

(* A random ICC event over the same population the store was drawn
   from: some explicit, some implicit, some carrying tainted extras,
   senders with partial permission sets. *)
let enforce_event ~pop st =
  let svc = "Svc" ^ string_of_int (Random.State.int st pop) in
  let snd_c = "Cmp" ^ string_of_int (Random.State.int st pop) in
  let resources = Array.of_list Resource.all in
  let explicit = Random.State.bool st in
  let action =
    if Random.State.int st 4 = 0 then
      Some ("com.bench.ACT" ^ string_of_int (Random.State.int st pop))
    else None
  in
  let extras =
    if Random.State.int st 4 = 0 then
      [
        Intent.
          {
            key = "k";
            value = "v";
            taint = [ resources.(Random.State.int st (Array.length resources)) ];
          };
      ]
    else []
  in
  let drop = Random.State.int st 7 in
  let perms = List.filteri (fun i _ -> (i + drop) mod 3 <> 0) Permission.all in
  Policy.
    {
      ev_kind = (if Random.State.bool st then Icc_receive else Icc_send);
      ev_sender_component = snd_c;
      ev_sender_app = "app." ^ snd_c;
      ev_sender_installed_at_analysis = Random.State.bool st;
      ev_sender_permissions = perms;
      ev_intent =
        Intent.make
          ?target:(if explicit then Some svc else None)
          ?action ~extras ();
      ev_receiver_component = svc;
      ev_receiver_app = "app." ^ svc;
    }

let decision_fingerprint = function
  | Policy.Allowed -> "allow"
  | Policy.Prompted p -> "prompt:" ^ p.Policy.p_id
  | Policy.Denied p -> "deny:" ^ p.Policy.p_id

type enforce_latency = {
  el_rules : int;
  el_linear_ns : float;  (* uncompiled single-pass scan, per check *)
  el_compiled_ns : float;  (* compiled decision structure, per check *)
  el_identical : bool;  (* verdict AND deciding policy id, every event *)
  el_stats : Compile.stats;
}

(* Per-check PDP latency vs store size, compiled vs linear, on the same
   event set; every event double-checked for identity along the way. *)
let enforce_latency ~mode ~rules =
  let st = Random.State.make [| 0x5e9a; rules |] in
  let store = enforce_store ~rules st in
  let pop = enforce_pop rules in
  let n_events = if mode = "smoke" then 200 else 1000 in
  let events = Array.init n_events (fun _ -> enforce_event ~pop st) in
  let compiled = Compile.compile store in
  let identical =
    Array.for_all
      (fun ev ->
        decision_fingerprint (Compile.decide_full compiled ev)
        = decision_fingerprint (Policy.decide_both store ev)
        && decision_fingerprint (Compile.decide compiled ev)
           = decision_fingerprint (Policy.decide store ev))
      events
  in
  let checks = if mode = "smoke" then 5_000 else 50_000 in
  let time engine =
    (* one warm-up lap, then the measured loop *)
    for k = 0 to n_events - 1 do
      ignore (engine events.(k))
    done;
    let (), ms =
      Trace.timed "bench.enforce.pdp" (fun () ->
          for k = 0 to checks - 1 do
            ignore (engine events.(k mod n_events))
          done)
    in
    ms *. 1e6 /. float_of_int checks
  in
  {
    el_rules = rules;
    el_linear_ns = time (Policy.decide_both store);
    el_compiled_ns = time (Compile.decide_full compiled);
    el_identical = identical;
    el_stats = Compile.stats compiled;
  }

(* Enforcement reports under one PDP mode, as the rendered effect lines
   — the byte-identity unit.  The Figure 1 bundle exercises the
   synthesized (Table I-derived) policies; the ICC benchmark app
   exercises the prompt guard on a foreign sender. *)
let enforce_mode_report ~policies mode =
  let d = Device.create () in
  List.iter (Device.install d)
    [ Demo.navigation_app (); Demo.messenger_app (); Demo.relay_malware () ];
  Device.install d (rq4_apps 10);
  Device.set_policies d policies
    [ "com.example.navigation"; "com.example.messenger" ];
  Device.set_pdp_mode d mode;
  Device.set_enforcement d true;
  Device.start_component d ~pkg:"com.example.navigation"
    ~component:"LocationFinder" ~entry:"onStartCommand";
  Device.start_component d ~pkg:"bench.icc" ~component:"Caller";
  String.concat "\n"
    (List.map (fun e -> Fmt.str "%a" Effect.pp e) (Device.effects d))

(* Per-check PDP latency against store size, compiled matcher vs linear
   scan, with every sampled event decided identically (verdict and
   deciding-policy id) by both; then the running example's enforcement
   reports under both PDP modes, which must be byte-identical.  The
   compiled matcher must beat the linear scan at 1000 rules. *)
let enforce ~mode =
  let latency =
    List.map (fun rules -> enforce_latency ~mode ~rules) [ 10; 100; 1000 ]
  in
  let find_lat rules = List.find (fun l -> l.el_rules = rules) latency in
  let l10 = find_lat 10 and l1000 = find_lat 1000 in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let compiled_ratio = ratio l1000.el_compiled_ns l10.el_compiled_ns in
  let linear_ratio = ratio l1000.el_linear_ns l10.el_linear_ns in
  let identity_ok = List.for_all (fun l -> l.el_identical) latency in
  (* one store for both modes: derived policy ids come from a global
     counter, so the store must be synthesized exactly once *)
  let mode_policies = demo_policies () in
  let rep_compiled = enforce_mode_report ~policies:mode_policies Device.Compiled in
  let rep_reference =
    enforce_mode_report ~policies:mode_policies Device.Reference
  in
  let reports_identical = rep_compiled = rep_reference in
  let latency_json l =
    Json.Obj
      [
        ("rules", Json.Int l.el_rules);
        ("linear_ns_per_check", Json.Float l.el_linear_ns);
        ("compiled_ns_per_check", Json.Float l.el_compiled_ns);
        ("speedup", Json.Float (ratio l.el_linear_ns l.el_compiled_ns));
        ("identical_decisions", Json.Bool l.el_identical);
        ("index_entries", Json.Int l.el_stats.Compile.st_entries);
        ("index_action_buckets", Json.Int l.el_stats.Compile.st_action_buckets);
        ( "index_receiver_buckets",
          Json.Int l.el_stats.Compile.st_receiver_buckets );
      ]
  in
  List.iter
    (fun l ->
      Printf.printf
        "%5d rules: linear %8.0f ns/check, compiled %8.0f ns/check (%.1fx)\n"
        l.el_rules l.el_linear_ns l.el_compiled_ns
        (ratio l.el_linear_ns l.el_compiled_ns))
    latency;
  Printf.printf
    "store 10 -> 1000 rules: compiled per-check cost x%.2f (linear x%.2f)\n"
    compiled_ratio linear_ratio;
  Printf.printf
    "decisions identical: %b; reports byte-identical across modes: %b\n"
    identity_ok reports_identical;
  outcome
    ~body:
      [
        ("latency_vs_store_size", Json.List (List.map latency_json latency));
        ("compiled_1000_vs_10_ratio", Json.Float compiled_ratio);
        ("linear_1000_vs_10_ratio", Json.Float linear_ratio);
        ("identity_ok", Json.Bool identity_ok);
        ("reports_identical_across_modes", Json.Bool reports_identical);
      ]
    ~checks:
      [
        ( identity_ok,
          "compiled PDP disagrees with reference decide (verdict or policy id)"
        );
        ( reports_identical,
          "enforcement reports differ across Compiled/Reference PDP modes" );
        ( l1000.el_compiled_ns < l1000.el_linear_ns,
          Printf.sprintf
            "compiled PDP not faster than linear scan at 1000 rules (%.0f >= \
             %.0f ns/check)"
            l1000.el_compiled_ns l1000.el_linear_ns );
      ]
    ()

(* --- driver ----------------------------------------------------------------------- *)

type section = {
  name : string;
  doc : string;  (* one line: the section's header and its usage entry *)
  run : mode:string -> outcome;
}

(* In [dune exec bench/main.exe] order. *)
let sections =
  [
    { name = "table1"; run = table1;
      doc = "Table I: ICC vulnerability detection (DroidBench 2.0 + ICC-Bench)" };
    { name = "solver"; run = solver;
      doc = "Solver kernels: demo-bundle synthesis, pigeonhole, minimal models" };
    { name = "parallel"; run = parallel;
      doc = "Parallel synthesis: ASE at -j 1/2/4 over the Table I workload" };
    { name = "cache"; run = cache;
      doc = "Persistent cache: cold vs warm vs one-app-changed (Table I)" };
    { name = "serve"; run = serve;
      doc = "App-store daemon: footprint-selective re-analysis vs full repair" };
    { name = "enforce"; run = enforce;
      doc = "Compiled PDP vs linear scan at 10/100/1000 rules, per PDP mode" };
    { name = "flowbench"; run = flowbench;
      doc = "FlowBench: intra-component taint precision (FlowDroid substitute)" };
    { name = "scenario"; run = scenario;
      doc = "Running example (paper SS V-VI): synthesized exploit and policy" };
    { name = "fig5"; run = fig5;
      doc = "Figure 5: extraction time vs app size (--apps N, default 4000)" };
    { name = "table2"; run = table2;
      doc = "Table II: bundle statistics and solver timing (--bundles N, default 10)" };
    { name = "rq2"; run = rq2;
      doc = "RQ2: vulnerable apps per category (--bundles N of 50 apps, default 80)" };
    { name = "rq4"; run = rq4;
      doc = "RQ4: policy enforcement overhead (33 repetitions, 95% CI)" };
    { name = "ablation-minimal"; run = ablation_minimal;
      doc = "Ablation: minimal (Aluminum) vs arbitrary (plain SAT) scenarios" };
    { name = "ablation-context"; run = ablation_context;
      doc = "Ablation: context sensitivity (k = 1 vs k = 0)" };
    { name = "ablation-pruning"; run = ablation_pruning;
      doc = "Ablation: entry-point reachability pruning" };
    { name = "ablation-incremental"; run = ablation_incremental;
      doc = "Extension: incremental re-analysis (the Marshmallow scenario)" };
  ]

let usage () =
  prerr_string
    "usage: main.exe [SECTION ...] [--smoke SECTION] [--bundles N] [--apps N] \
     [--trace]\n\n\
    \  no SECTION (or `all`) runs every section in full mode;\n\
    \  --smoke SECTION runs it on a small workload and exits 1 if a check \
     fails;\n\
    \  --trace writes the run's Chrome trace to trace.json.\n\n\
     sections:\n";
  List.iter (fun s -> Printf.eprintf "  %-22s %s\n" s.name s.doc) sections;
  exit 2

(* Run one section: header, the section itself, its BENCH_<name>.json
   (inside the common mode/provenance envelope) and its failed checks,
   prefixed by the section.  True when a check failed. *)
let run_section ~mode s =
  header s.doc;
  let o, ms =
    Trace.timed "bench.section"
      ~attrs:[ Trace.attr_str "section" s.name ]
      (fun () -> s.run ~mode)
  in
  if o.body <> [] then begin
    let file = "BENCH_" ^ s.name ^ ".json" in
    let oc = open_out file in
    output_string oc
      (Json.to_string
         (Json.Obj
            (("mode", Json.Str mode)
            :: ("provenance", Lazy.force provenance)
            :: o.body)));
    output_string oc "\n";
    close_out oc;
    Printf.printf "-> %s\n" file
  end;
  let failed =
    List.filter_map (fun (ok, msg) -> if ok then None else Some msg) o.checks
  in
  List.iter (fun msg -> Printf.printf "%s FAILED: %s\n" s.name msg) failed;
  if o.checks <> [] && failed = [] then
    Printf.printf "%s: all %d checks passed\n" s.name (List.length o.checks);
  Printf.printf "%s: %.1fs\n%!" s.name (ms /. 1000.0);
  failed <> []

let () =
  let find name =
    match List.find_opt (fun s -> s.name = name) sections with
    | Some s -> s
    | None -> usage ()
  in
  let tracing = ref false in
  (* (section, mode) in command-line order; flags never name sections *)
  let rec parse acc = function
    | [] -> List.rev acc
    | "--trace" :: rest ->
        tracing := true;
        parse acc rest
    | "--smoke" :: name :: rest -> parse ((find name, "smoke") :: acc) rest
    | (("--bundles" | "--apps") as o) :: v :: rest -> (
        match int_of_string_opt v with
        | Some n ->
            options := (o, n) :: !options;
            parse acc rest
        | None -> usage ())
    | "all" :: rest ->
        parse (List.rev_map (fun s -> (s, "full")) sections @ acc) rest
    | name :: rest when not (String.starts_with ~prefix:"-" name) ->
        parse ((find name, "full") :: acc) rest
    | _ -> usage ()
  in
  let runs =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map (fun s -> (s, "full")) sections
    | runs -> runs
  in
  if !tracing then begin
    Trace.enable ();
    Metrics.enable ()
  end;
  let smoke_failed =
    List.fold_left
      (fun acc (s, mode) ->
        let failed = run_section ~mode s in
        acc || (failed && mode = "smoke"))
      false runs
  in
  if !tracing then begin
    Telemetry.write_trace "trace.json";
    Printf.printf "\nwrote Chrome trace to trace.json (load in \
                   chrome://tracing or https://ui.perfetto.dev)\n%!"
  end;
  if smoke_failed then exit 1
