(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe                 run every experiment
     dune exec bench/main.exe -- table1       one experiment
     dune exec bench/main.exe -- rq2 --bundles 20

   Experiments (see DESIGN.md's index):
     table1            Table I   tool-comparison on DroidBench + ICC-Bench
     rq2               §VII.B    vulnerable apps per category over 4,000 apps
     fig5              Figure 5  extraction time vs app size
     table2            Table II  bundle statistics and solver timing
     rq4               §VII.D    policy enforcement overhead (33 reps, 95% CI)
     scenario          §V/§VI    the running example's exploit + policy
     parallel          ASE at -j 1/2/4 over Table I (BENCH_parallel.json)
     cache             persistent cross-run cache: cold vs warm vs one-app-changed
                       (BENCH_cache.json)
     serve             app-store daemon: footprint-indexed selective re-analysis
                       of an upload stream vs full repair (BENCH_serve.json)
     enforce           compiled PDP vs linear scan at 10/100/1000 rules +
                       device-fleet soak with hot swaps (BENCH_enforce.json)
     ablation-minimal  minimal vs arbitrary scenarios
     ablation-context  k = 1 vs k = 0 context sensitivity
     ablation-pruning  entry-point reachability pruning on vs off
     kernels           Bechamel micro-benchmarks of the pipeline stages *)

open Separ
module Generator = Separ_workload.Generator
module Trace = Separ_obs.Trace
module Metrics = Separ_obs.Metrics
module Log = Separ_obs.Log
module Telemetry = Separ_report.Telemetry
module Json = Separ_report.Json
module Provenance = Separ_report.Provenance
module History = Separ_report.History

let header title =
  Printf.printf "\n==================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================\n%!"

(* --- bench trajectory ------------------------------------------------------- *)

let history_path = "BENCH_HISTORY.ndjson"

(* Collected once per process, so every history line of one bench run
   carries the same commit/host/timestamp stamp. *)
let provenance = lazy (Provenance.json (Provenance.collect ()))

(* Append one (section, mode) trajectory point to BENCH_HISTORY.ndjson.
   The BENCH_*.json snapshots are overwritten on every run; the history
   file only grows, and `separ benchdiff` gates on it. *)
let record_history ?(mode = "full") ?(extra = []) ~section wall_ms =
  History.append ~path:history_path
    {
      History.e_section = section;
      e_mode = mode;
      e_wall_ms = wall_ms;
      e_provenance = Lazy.force provenance;
      e_extra = extra;
    }

(* Descriptive statistics come from the shared implementation so every
   table reports the same (nearest-rank) percentile estimator.  The
   confidence intervals use the sample (n-1) standard deviation and
   Student-t critical values — the paper's ±1.76% is a t-interval, and z
   = 1.96 with a population stddev understates the interval at n = 33. *)
let mean = Separ_report.Stats.mean
let percentile = Separ_report.Stats.percentile
let ci95 = Separ_report.Stats.ci95_halfwidth

(* --- Table I ---------------------------------------------------------------- *)

let run_table1 () =
  header "Table I: ICC vulnerability detection (DroidBench 2.0 + ICC-Bench)";
  let rows, elapsed_ms =
    Trace.timed "bench.table1" (fun () -> Separ_suites.Table1.run ())
  in
  print_string (Separ_suites.Table1.render rows);
  Printf.printf "\n(paper: DidFail 55/37/44, AmanDroid 86/48/63, SEPAR 100/97/98)\n";
  Printf.printf "elapsed: %.1fs\n%!" (elapsed_ms /. 1000.0);
  record_history ~section:"table1"
    ~extra:[ ("cases", Json.Int (List.length rows)) ]
    elapsed_ms

(* --- shared corpus ------------------------------------------------------------ *)

let corpus = lazy (Generator.generate ())

(* --- RQ2 ---------------------------------------------------------------------- *)

let run_rq2 ~bundles:n_bundles () =
  header
    (Printf.sprintf
       "RQ2: vulnerable apps per category (%d bundles of 50 apps)" n_bundles);
  let corpus = Lazy.force corpus in
  let bundles = Generator.bundles ~size:50 corpus in
  let chosen = List.filteri (fun i _ -> i < n_bundles) bundles in
  let tally : (string * string, unit) Hashtbl.t = Hashtbl.create 256 in
  let (), total_ms =
    Trace.timed "bench.rq2" (fun () ->
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
          chosen)
  in
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
  Printf.printf "elapsed: %.1fs\n%!" (total_ms /. 1000.0);
  record_history ~section:"rq2"
    ~extra:[ ("bundles", Json.Int (List.length chosen)) ]
    total_ms

(* --- Figure 5 ------------------------------------------------------------------ *)

let run_fig5 ~apps:n_apps () =
  header
    (Printf.sprintf "Figure 5: model extraction time vs app size (%d apps)"
       n_apps);
  let corpus = List.filteri (fun i _ -> i < n_apps) (Lazy.force corpus) in
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
  record_history ~section:"fig5"
    ~extra:[ ("apps", Json.Int (List.length samples)) ]
    total_ms

(* --- Table II ------------------------------------------------------------------- *)

let run_table2 ~bundles:n_bundles () =
  header
    (Printf.sprintf "Table II: per-bundle statistics and solver timing (%d bundles)"
       n_bundles);
  let corpus = Lazy.force corpus in
  let bundles = Generator.bundles ~size:50 corpus in
  let chosen = List.filteri (fun i _ -> i < n_bundles) bundles in
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
    (avg (fun (_, _, _, c, _) -> c) > avg (fun (_, _, _, _, s) -> s))

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
  let analysis = analyze [ Demo.navigation_app (); Demo.messenger_app () ] in
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

let run_rq4 () =
  header "RQ4: policy enforcement overhead (33 repetitions, 95% CI)";
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
    (percentile 0.50 diffs) (percentile 0.95 diffs) (percentile 0.99 diffs)

(* --- the running example (E6) --------------------------------------------------- *)

let run_scenario () =
  header "Running example (paper SS V-VI): synthesized exploit and policy";
  let analysis = analyze [ Demo.navigation_app (); Demo.messenger_app () ] in
  List.iter
    (fun v ->
      Fmt.pr "--- %s ---@.%a@.@." v.Ase.v_kind Scenario.pp v.Ase.v_scenario)
    (vulnerabilities analysis);
  Fmt.pr "--- synthesized policies ---@.";
  List.iter (fun p -> Fmt.pr "%a@.@." Policy.pp p) (policies analysis)

(* --- ablations -------------------------------------------------------------------- *)

let run_ablation_minimal () =
  header "Ablation: minimal (Aluminum) vs arbitrary (plain SAT) scenarios";
  let models =
    List.map Extract.extract [ Demo.navigation_app (); Demo.messenger_app () ]
  in
  let bundle = Bundle.update_passive_targets (Bundle.of_models models) in
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
    (min_size <= raw_size && min_f <= raw_f)

let run_ablation_context () =
  header "Ablation: context sensitivity (k = 1 vs k = 0)";
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
    "k=1 avoids the false positive that k=0 reports: %b\n%!" (fp_k1 < fp_k0)

let run_ablation_pruning () =
  header "Ablation: entry-point reachability pruning";
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
    (f_all - f_pruned)

let run_flowbench () =
  header "FlowBench: intra-component taint precision (the FlowDroid substitute)";
  print_string (Separ_suites.Flowbench.render ())

let run_ablation_incremental () =
  header "Extension: incremental re-analysis (the Marshmallow scenario)";
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
    t_incr (t_full /. t_incr)

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
     3-SAT, exercising the shared activation literal *)
let run_solver_bench ~mode () =
  let module S = Separ_sat.Solver in
  (* The solver bench always runs with telemetry on so BENCH_solver.json
     carries its per-phase breakdown; previous state is restored on the
     way out so [--smoke] under `dune runtest` leaves no residue. *)
  let was_tracing = Trace.is_enabled () and was_metrics = Metrics.is_enabled () in
  Trace.enable ();
  Metrics.enable ();
  let (report, php_result, php_stats, scenarios, enum_stats), elapsed_ms =
    Trace.timed "bench.solver" (fun () ->
        (* Table II workload: the demo bundle through the full ASE
           pipeline. *)
        let report =
          Trace.with_span "bench.solver.workload" (fun () ->
              let models =
                List.map Extract.extract
                  [ Demo.navigation_app (); Demo.messenger_app () ]
              in
              let bundle = Bundle.of_models models in
              let limit = if mode = "smoke" then 4 else 16 in
              Ase.analyze ~limit_per_sig:limit bundle)
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
  let elapsed = elapsed_ms /. 1000.0 in
  let solver = Separ_report.Report.of_solver_stats in
  let json =
    Json.Obj
      [
        ("mode", Json.Str mode);
        ("provenance", Lazy.force provenance);
        ("elapsed_s", Json.Float elapsed);
        ("telemetry", Telemetry.telemetry_json ());
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
      ]
  in
  if not was_tracing then Trace.disable ();
  if not was_metrics then Metrics.disable ();
  let total f =
    f report.Ase.r_solver + f php_stats + f enum_stats
  in
  (* Kernel throughput: conflicts/s measures learning+backtracking speed,
     propagations/s the watcher hot path — the two rates the flat-arena
     kernel is tuned for, tracked in the history for trend diffing. *)
  let conflicts_per_sec =
    if elapsed > 0.0 then float_of_int (total (fun s -> s.S.s_conflicts)) /. elapsed
    else 0.0
  in
  let props_per_sec =
    if elapsed > 0.0 then
      float_of_int (total (fun s -> s.S.s_propagations)) /. elapsed
    else 0.0
  in
  let json =
    match json with
    | Json.Obj fields ->
        Json.Obj
          (fields
          @ [
              ("conflicts_per_sec", Json.Float conflicts_per_sec);
              ("propagations_per_sec", Json.Float props_per_sec);
            ])
    | j -> j
  in
  let oc = open_out "BENCH_solver.json" in
  output_string oc (Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Printf.printf
    "solver kernels (%.1fs): %d conflicts, %d propagations, %d learnt-db \
     reductions (%d clauses deleted), %d literals minimized, activation \
     vars retired %d\n  throughput: %.0f conflicts/s, %.0f propagations/s \
     -> BENCH_solver.json\n%!"
    elapsed
    (total (fun s -> s.S.s_conflicts))
    (total (fun s -> s.S.s_propagations))
    (total (fun s -> s.S.s_db_reductions))
    (total (fun s -> s.S.s_learnts_deleted))
    (total (fun s -> s.S.s_lits_minimized))
    (total (fun s -> s.S.s_act_retired))
    conflicts_per_sec props_per_sec;
  record_history ~mode ~section:"solver"
    ~extra:
      [
        ("conflicts", Json.Int (total (fun s -> s.S.s_conflicts)));
        ("propagations", Json.Int (total (fun s -> s.S.s_propagations)));
        ("conflicts_per_sec", Json.Float conflicts_per_sec);
        ("propagations_per_sec", Json.Float props_per_sec);
      ]
    elapsed_ms;
  (report, php_result, php_stats, scenarios, enum_stats)

(* Fast correctness/perf gate for `dune runtest`: fails (exit 1) when the
   solver stops reducing its learnt database, stops terminating the
   stress kernels in a sane number of conflicts, or leaks activation
   variables again. *)
let run_smoke () =
  header "Smoke: solver kernels + demo-bundle synthesis (tier-1 gate)";
  let module S = Separ_sat.Solver in
  let report, php_result, php_stats, scenarios, enum_stats =
    run_solver_bench ~mode:"smoke" ()
  in
  let failures = ref [] in
  let expect cond msg = if not cond then failures := msg :: !failures in
  expect (php_result = S.Unsat) "pigeonhole 8/7 must be unsat";
  expect
    (php_stats.S.s_db_reductions > 0)
    "learnt-db reductions did not fire on the pigeonhole stress";
  expect
    (php_stats.S.s_conflicts < 500_000)
    "pigeonhole 8/7 took an absurd number of conflicts";
  expect
    (php_stats.S.s_lits_minimized > 0)
    "learnt-clause minimization removed no literals";
  expect
    (report.Ase.r_vulnerabilities <> [])
    "demo bundle produced no exploit scenarios";
  expect (scenarios <> []) "enumeration kernel produced no scenarios";
  expect
    (enum_stats.S.s_act_live = 0
    && enum_stats.S.s_act_retired <= List.length scenarios + 1)
    "activation literals leak again (one per shrink round?)";
  match !failures with
  | [] -> Printf.printf "smoke: all solver gates passed\n%!"
  | fs ->
      List.iter (fun f -> Printf.printf "smoke FAILURE: %s\n" f) fs;
      exit 1

(* A report with its performance fields zeroed, serialized: the
   comparable "what was found" view.  Runs that differ only in how the
   analysis ran ([-j], cache) must agree on this byte-for-byte. *)
let stripped_report_string report =
  Separ_report.Report.to_string
    ~report:(Ase.strip_performance report)
    ~policies:[] ()

(* --- telemetry smoke (tier-1 gate) ---------------------------------------- *)

(* Runs the §V running example with tracing on and fails (exit 1) when
   the observability layer regresses: empty span tree, non-monotone
   timestamps, children escaping their parent span, a missing pipeline
   phase, a SAT-span total that disagrees with the reported solving
   time, or a Chrome-trace export that no longer parses. *)
let run_telemetry_smoke () =
  header "Telemetry smoke: span tree + Chrome-trace export (tier-1 gate)";
  Trace.enable ();
  Metrics.enable ();
  Trace.reset ();
  Metrics.reset ();
  let analysis = analyze [ Demo.navigation_app (); Demo.messenger_app () ] in
  let failures = ref [] in
  let expect cond msg = if not cond then failures := msg :: !failures in
  expect
    (vulnerabilities analysis <> [])
    "running example produced no vulnerabilities";
  let roots = Trace.roots () in
  expect (roots <> []) "span tree is empty with tracing enabled";
  (* structural checks: non-negative durations, children contained in
     their parent, sibling start times monotone *)
  let rec check_span (sp : Trace.span) =
    expect (sp.Trace.sp_dur_us >= 0.0)
      (sp.Trace.sp_name ^ ": negative span duration");
    let fin = sp.Trace.sp_start_us +. sp.Trace.sp_dur_us in
    List.iter
      (fun (c : Trace.span) ->
        expect
          (c.Trace.sp_start_us +. 1e-6 >= sp.Trace.sp_start_us
          && c.Trace.sp_start_us +. c.Trace.sp_dur_us <= fin +. 1e-6)
          (c.Trace.sp_name ^ " escapes parent span " ^ sp.Trace.sp_name))
      sp.Trace.sp_children;
    ignore
      (List.fold_left
         (fun prev (c : Trace.span) ->
           expect
             (c.Trace.sp_start_us +. 1e-6 >= prev)
             (c.Trace.sp_name ^ ": sibling start times not monotone");
           c.Trace.sp_start_us)
         sp.Trace.sp_start_us sp.Trace.sp_children);
    List.iter check_span sp.Trace.sp_children
  in
  List.iter check_span roots;
  (* every pipeline phase shows up *)
  List.iter
    (fun name ->
      expect (Trace.count name > 0) ("no " ^ name ^ " spans recorded"))
    [
      "ame.extract"; "ase.analyze"; "ase.signature"; "relog.translate";
      "relog.bounds"; "relog.circuit"; "relog.tseitin"; "sat.solve";
      "policy.derive";
    ];
  (* the trace agrees with the Table II numbers the report carries *)
  let sat_ms = Trace.total_ms "sat.solve" in
  let reported = analysis.Separ.report.Ase.r_solving_ms in
  expect
    (Float.abs (sat_ms -. reported) <= (0.01 *. reported) +. 1e-6)
    (Printf.sprintf
       "sat.solve span total (%.3f ms) disagrees with reported solving \
        time (%.3f ms)"
       sat_ms reported);
  (* construction = base translations (relog.translate) + per-signature
     deltas (relog.attach); a from-scratch run simply has no attach spans *)
  let translate_ms =
    Trace.total_ms "relog.translate" +. Trace.total_ms "relog.attach"
  in
  let constructed = analysis.Separ.report.Ase.r_construction_ms in
  expect
    (Float.abs (translate_ms -. constructed) <= (0.01 *. constructed) +. 1e-6)
    "relog.translate+attach span total disagrees with reported construction \
     time";
  (* counters were bridged *)
  expect
    (Metrics.counter_value (Metrics.counter "sat.solves") > 0)
    "sat.solves counter never incremented";
  expect
    (Metrics.counter_value (Metrics.counter "ame.apps_extracted") = 2)
    "ame.apps_extracted counter is not 2";
  (* the exported Chrome trace parses and its events are well-formed *)
  let exported = Json.to_string (Telemetry.trace_json ()) in
  (match Json.parse exported with
  | exception Json.Parse_error msg ->
      expect false ("exported trace.json does not parse: " ^ msg)
  | parsed -> (
      match Option.bind (Json.member "traceEvents" parsed) Json.to_list with
      | None | Some [] -> expect false "traceEvents missing or empty"
      | Some events ->
          List.iter
            (fun ev ->
              let str k = Option.bind (Json.member k ev) Json.to_str in
              let num k = Option.bind (Json.member k ev) Json.to_float in
              expect (str "name" <> None) "trace event without name";
              expect (str "ph" = Some "X") "trace event is not an X event";
              expect
                (match num "ts" with Some ts -> ts >= 0.0 | None -> false)
                "trace event without numeric ts";
              expect
                (match num "dur" with Some d -> d >= 0.0 | None -> false)
                "trace event without numeric dur")
            events));
  Trace.disable ();
  Metrics.disable ();
  match !failures with
  | [] ->
      Printf.printf "telemetry smoke: %d spans, all gates passed\n%!"
        (Trace.fold_spans (fun acc _ -> acc + 1) 0)
  | fs ->
      List.iter (fun f -> Printf.printf "telemetry FAILURE: %s\n" f) fs;
      exit 1

(* --- parallel synthesis (BENCH_parallel.json) ------------------------------ *)

(* Comparable view of an analysis across [-j N]: kind + description of
   every scenario, in report order. *)
let scenario_keys (report : Ase.report) =
  List.map
    (fun v -> (v.Ase.v_kind, v.Ase.v_scenario.Scenario.sc_description))
    report.Ase.r_vulnerabilities

module Pool = Separ_exec.Pool

(* What the parallel bench measured, for the smoke gate. *)
type parallel_bench = {
  pb_identical : bool;
  pb_degradations : Ase.degraded list;
  pb_cores : int;
  pb_speedup_at_2 : float;
  pb_pool : (int * Pool.run_stats) list; (* per width, the pool's own view *)
}

(* The Table I workload (one bundle per DroidBench/ICC-Bench case) run
   through ASE at increasing worker-pool widths, sharded across
   *bundles* first (Ase.analyze_many): one persistent fork set serves
   all the cases per width, with bundles batched over the wire.  Checks
   that every width produces the identical scenario sets, that forks
   scale with the pool width (not the task count), and measures the
   1-vs-N wall-clock speedup, -j 1 and -j 2 as medians of [repeats]
   alternated timings -> BENCH_parallel.json. *)
let run_parallel_bench ~mode () =
  header
    "Parallel synthesis: ASE at -j 1/2/4, bundle-axis sharding (Table I \
     workload)";
  let cases =
    let all = Separ_suites.Table1.all_cases () in
    if mode = "smoke" then List.filteri (fun i _ -> i < 6) all else all
  in
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
    Trace.timed "bench.parallel"
      ~attrs:[ Trace.attr_int "jobs" jobs ]
      (fun () -> Ase.analyze_many ~jobs (List.map snd bundles))
  in
  let first =
    List.map
      (fun jobs ->
        let reports, ms = run_width jobs in
        let keys =
          List.map2
            (fun (name, _) report ->
              (name, scenario_keys report, report.Ase.r_degraded))
            bundles reports
        in
        (jobs, keys, ms, Pool.last_run_stats ()))
      widths
  in
  (* One sample is at the mercy of the scheduler, and under `dune
     runtest` the other gates share the host: time -j 1 and -j 2, the
     pair the smoke gate compares, [repeats] times, alternating which
     runs first, and keep the medians.  -j 4 keeps its one sample, so
     the gate adds no 4-worker bursts to the gates running beside it.
     Scenario sets and pool counts come from the first round. *)
  let repeats = 5 in
  let more =
    List.concat
      (List.init (repeats - 1) (fun round ->
           let order = if round mod 2 = 0 then [ 2; 1 ] else [ 1; 2 ] in
           List.map (fun jobs -> (jobs, snd (run_width jobs))) order))
  in
  let runs =
    List.map
      (fun (jobs, keys, ms, pool) ->
        let samples =
          ms
          :: List.filter_map
               (fun (j, m) -> if j = jobs then Some m else None)
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
  let json =
    Json.Obj
      [
        ("mode", Json.Str mode);
        ("provenance", Lazy.force provenance);
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
                     ("batches", Json.Int pool.Pool.rs_batches);
                     ("batch_size", Json.Int pool.Pool.rs_batch);
                   ])
               runs) );
        ("identical_scenario_sets", Json.Bool identical);
        ("degraded_signatures", Json.Int (List.length degradations));
        ("speedup_at_2", Json.Float (speedup_at 2));
        ("speedup_at_4", Json.Float (speedup_at 4));
      ]
  in
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Json.to_string json);
  output_string oc "\n";
  close_out oc;
  List.iter
    (fun (jobs, _, ms, (pool : Pool.run_stats)) ->
      Printf.printf
        "-j %d: %7.1f ms (speedup %.2fx, %d forks, %d batches of <= %d)\n"
        jobs ms
        (if ms > 0.0 then base_ms /. ms else 0.0)
        pool.Pool.rs_forks pool.Pool.rs_batches pool.Pool.rs_batch)
    runs;
  Printf.printf "scenario sets identical across -j: %b -> BENCH_parallel.json\n"
    identical;
  if cores = 1 then
    Printf.printf
      "(single-core host: workers time-slice one CPU, speedup <= 1 expected)\n";
  Printf.printf "%!";
  (* The trajectory headline is the -j 1 wall time: speedups divide it
     away, so a sequential regression would otherwise hide. *)
  record_history ~mode ~section:"parallel"
    ~extra:
      [
        ("cpu_cores", Json.Int cores);
        ("speedup_at_2", Json.Float (speedup_at 2));
        ("speedup_at_4", Json.Float (speedup_at 4));
      ]
    base_ms;
  {
    pb_identical = identical;
    pb_degradations = degradations;
    pb_cores = cores;
    pb_speedup_at_2 = speedup_at 2;
    pb_pool =
      List.map (fun (jobs, _, _, pool) -> (jobs, pool)) runs;
  }

(* Tier-1 gate for `dune runtest`: a small Table I slice plus the demo
   bundle at -j 1 and -j 2 must produce byte-identical scenario sets, a
   zero conflict budget must degrade every searching signature
   (terminating, no scenarios) rather than hang or crash, forks must
   scale with the pool width (not the task count), and — on hosts with
   at least two cores — -j 2 must not be slower than -j 1.  On a
   single-core host the speedup gate prints an explicit SKIPPED line
   instead of silently passing. *)
let run_parallel_smoke () =
  header "Parallel smoke: -j determinism + budget degradation (tier-1 gate)";
  let failures = ref [] in
  let expect cond msg = if not cond then failures := msg :: !failures in
  let pb = run_parallel_bench ~mode:"smoke" () in
  expect pb.pb_identical "scenario sets differ across -j widths";
  expect (pb.pb_degradations = [])
    "un-budgeted parallel run reported degraded signatures";
  (* Forks must track the pool, not the workload: at every width the
     persistent pool forks min(jobs, batches) children, reuses them
     across batches, and never needs a respawn in a crash-free run. *)
  List.iter
    (fun (jobs, (pool : Pool.run_stats)) ->
      if jobs > 1 then begin
        expect
          (pool.Pool.rs_forks = min jobs pool.Pool.rs_batches)
          (Printf.sprintf
             "-j %d forked %d workers for %d batches (want min(jobs, \
              batches) = %d)"
             jobs pool.Pool.rs_forks pool.Pool.rs_batches
             (min jobs pool.Pool.rs_batches));
        expect
          (pool.Pool.rs_respawns = 0)
          (Printf.sprintf "-j %d respawned %d workers in a crash-free run"
             jobs pool.Pool.rs_respawns)
      end)
    pb.pb_pool;
  (* The regression this gate exists to catch: parallel slower than
     sequential.  Only meaningful when the host can actually run two
     workers at once, so single-core hosts skip it — loudly. *)
  if pb.pb_cores >= 2 then
    expect
      (pb.pb_speedup_at_2 >= 1.0)
      (Printf.sprintf
         "-j 2 is slower than -j 1 (speedup %.2fx) on a %d-core host"
         pb.pb_speedup_at_2 pb.pb_cores)
  else
    Printf.printf
      "parallel smoke: speedup gate SKIPPED (single-core host, cpu_cores=%d)\n"
      pb.pb_cores;
  let demo_bundle =
    Bundle.of_models
      (List.map Extract.extract
         [ Demo.navigation_app (); Demo.messenger_app () ])
  in
  let seq = Ase.analyze ~jobs:1 demo_bundle in
  let par = Ase.analyze ~jobs:2 demo_bundle in
  expect (seq.Ase.r_vulnerabilities <> [])
    "demo bundle produced no scenarios";
  expect
    (scenario_keys seq = scenario_keys par)
    "demo bundle scenario sets differ between -j 1 and -j 2";
  let budget =
    { Separ_sat.Solver.b_max_conflicts = Some 0; b_max_time_ms = None }
  in
  List.iter
    (fun jobs ->
      let starved = Ase.analyze ~jobs ~budget demo_bundle in
      expect
        (starved.Ase.r_vulnerabilities = [])
        "zero-budget analysis still produced scenarios";
      expect
        (starved.Ase.r_degraded <> [])
        "zero-budget analysis recorded no degraded signatures";
      List.iter
        (fun (d : Ase.degraded) ->
          expect
            (d.Ase.d_reason = "budget_exhausted")
            ("unexpected degradation reason: " ^ d.Ase.d_reason))
        starved.Ase.r_degraded)
    [ 1; 2 ];
  match !failures with
  | [] -> Printf.printf "parallel smoke: all gates passed\n%!"
  | fs ->
      List.iter (fun f -> Printf.printf "parallel smoke FAILURE: %s\n" f) fs;
      exit 1

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

type cache_bench = {
  cb_warm_identical : bool;
  cb_changed_identical : bool;
  cb_warm_extractions : int;
  cb_warm_solves : int;
  cb_warm_hits : int;
  cb_changed_extractions : int;
  cb_changed_hits : int;
  cb_changed_misses : int;
  cb_cold_ms : float;
  cb_warm_ms : float;
  cb_changed_ms : float;
}

(* The Table I workload (each bundle augmented with the probe app)
   analyzed three times through one on-disk cache: cold (empty cache),
   warm (nothing changed), and with the probe's path edited (one app
   changed).  A from-scratch pass over the edited workload is the
   correctness reference.  Measurements -> BENCH_cache.json. *)
let run_cache_bench ~mode () =
  header "Persistent cache: cold vs warm vs one-app-changed (Table I workload)";
  let cases =
    let all = Separ_suites.Table1.all_cases () in
    if mode = "smoke" then List.filteri (fun i _ -> i < 6) all else all
  in
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
              let bundle =
                Bundle.of_models
                  (List.map (Extract.extract_cached ?cache) apks)
              in
              Ase.analyze ?cache bundle)
            apk_lists)
    in
    let count name = Metrics.counter_value (Metrics.counter name) in
    ( List.map stripped_report_string reports,
      wall_ms,
      count "ame.apps_extracted",
      count "sat.solves" )
  in
  let stat cache name =
    match List.assoc_opt name (Cache.stats cache) with Some n -> n | None -> 0
  in
  let dir = fresh_cache_dir "separ_cache_bench" in
  let cold_cache = Cache.open_ ~dir () in
  let cold_reports, cold_ms1, cold_extracted, cold_solves =
    pass ~cache:cold_cache (workload ~extra_path:false)
  in
  let warm_cache = Cache.open_ ~dir () in
  let warm_reports, warm_ms, warm_extracted, warm_solves =
    pass ~cache:warm_cache (workload ~extra_path:false)
  in
  let changed_cache = Cache.open_ ~dir () in
  let changed_reports, changed_ms1, changed_extracted, changed_solves =
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
  let result =
    {
      cb_warm_identical = cold_reports = warm_reports;
      cb_changed_identical = changed_reports = scratch_reports;
      cb_warm_extractions = warm_extracted;
      cb_warm_solves = warm_solves;
      cb_warm_hits = stat warm_cache "ase.hits";
      cb_changed_extractions = changed_extracted;
      cb_changed_hits = stat changed_cache "ase.hits";
      cb_changed_misses = stat changed_cache "ase.misses";
      cb_cold_ms = cold_ms;
      cb_warm_ms = warm_ms;
      cb_changed_ms = changed_ms;
    }
  in
  let phase_json ms extracted solves cache =
    Json.Obj
      ([
         ("wall_ms", Json.Float ms);
         ("ame_extractions", Json.Int extracted);
         ("sat_solves", Json.Int solves);
       ]
      @ List.map (fun (k, v) -> ("cache." ^ k, Json.Int v)) (Cache.stats cache))
  in
  let speedup over = if over > 0.0 then cold_ms /. over else 0.0 in
  let json =
    Json.Obj
      [
        ("mode", Json.Str mode);
        ("provenance", Lazy.force provenance);
        ("cases", Json.Int (List.length cases));
        ("signatures", Json.Int (List.length (Signatures.all ())));
        ("timing_repeats", Json.Int repeats);
        ("cold", phase_json cold_ms cold_extracted cold_solves cold_cache);
        ("warm", phase_json warm_ms warm_extracted warm_solves warm_cache);
        ( "one_app_changed",
          phase_json changed_ms changed_extracted changed_solves changed_cache
        );
        ("warm_identical_stripped_reports", Json.Bool result.cb_warm_identical);
        ( "changed_identical_stripped_reports",
          Json.Bool result.cb_changed_identical );
        ("warm_speedup", Json.Float (speedup warm_ms));
        ("changed_speedup", Json.Float (speedup changed_ms));
      ]
  in
  let oc = open_out "BENCH_cache.json" in
  output_string oc (Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Printf.printf
    "cold:    %7.1f ms  (%d extractions, %d solves)\n\
     warm:    %7.1f ms  (%d extractions, %d solves, %.1fx)\n\
     changed: %7.1f ms  (%d extractions, %d solves, %.1fx)\n"
    cold_ms cold_extracted cold_solves warm_ms warm_extracted warm_solves
    (speedup warm_ms) changed_ms changed_extracted changed_solves
    (speedup changed_ms);
  Printf.printf
    "changed run: %d ASE verdicts from cache, %d re-solved\n"
    result.cb_changed_hits result.cb_changed_misses;
  Printf.printf
    "stripped reports identical (warm %b, changed %b) -> BENCH_cache.json\n%!"
    result.cb_warm_identical result.cb_changed_identical;
  record_history ~mode ~section:"cache"
    ~extra:
      [
        ("warm_ms", Json.Float warm_ms); ("changed_ms", Json.Float changed_ms);
      ]
    cold_ms;
  result

(* Tier-1 gate for `dune runtest`: a warm re-run must do zero AME
   extractions and zero SAT solves yet reproduce the cold stripped
   reports byte-for-byte; editing one app must re-extract exactly that
   app and re-solve only the signatures whose delta footprint sees the
   edit (some hits AND some misses), again with a byte-identical
   from-scratch reference. *)
let run_cache_smoke () =
  header "Cache smoke: warm identity + one-app-changed selectivity (tier-1 gate)";
  let failures = ref [] in
  let expect cond msg = if not cond then failures := msg :: !failures in
  let r = run_cache_bench ~mode:"smoke" () in
  expect r.cb_warm_identical "warm stripped reports differ from cold";
  expect
    (r.cb_warm_extractions = 0)
    (Printf.sprintf "warm run extracted %d apps (expected 0)"
       r.cb_warm_extractions);
  expect
    (r.cb_warm_solves = 0)
    (Printf.sprintf "warm run ran %d SAT solves (expected 0)" r.cb_warm_solves);
  expect (r.cb_warm_hits > 0) "warm run recorded no ASE cache hits";
  expect
    (r.cb_changed_extractions = 1)
    (Printf.sprintf "one-app-changed run extracted %d apps (expected 1)"
       r.cb_changed_extractions);
  expect
    (r.cb_changed_hits > 0)
    "one-app-changed run kept no cached verdicts (expected path-blind hits)";
  expect
    (r.cb_changed_misses > 0)
    "one-app-changed run re-solved nothing (expected path-sensitive misses)";
  expect r.cb_changed_identical
    "one-app-changed stripped reports differ from the from-scratch reference";
  expect
    (r.cb_warm_ms < r.cb_cold_ms)
    (Printf.sprintf "warm run not faster than cold (%.1f >= %.1f ms)"
       r.cb_warm_ms r.cb_cold_ms);
  expect
    (r.cb_changed_ms < r.cb_cold_ms)
    (Printf.sprintf "one-app-changed run not faster than cold (%.1f >= %.1f ms)"
       r.cb_changed_ms r.cb_cold_ms);
  match !failures with
  | [] -> Printf.printf "cache smoke: all gates passed\n%!"
  | fs ->
      List.iter (fun f -> Printf.printf "cache smoke FAILURE: %s\n" f) fs;
      exit 1

(* --- serve: the app-store daemon ------------------------------------------- *)

type serve_bench_result = {
  sb_store : int;
  sb_updates : int;
  sb_selected : int;  (* bundles dispatched across the update stream *)
  sb_dispatch_full : int;  (* what per-update full repair would dispatch *)
  sb_selective : bool;  (* every update analyzed < store-size bundles *)
  sb_identical : bool;  (* selective stripped reports = full repair *)
  sb_warm_identical : bool;  (* warm replay through the cache agrees *)
  sb_index_consistent : bool;  (* hot-updated index = rebuild *)
  sb_cold_ms : float;
  sb_update_ms : float;
  sb_repair_ms : float;
  sb_warm_ms : float;
  sb_p50_ms : float;
  sb_p99_ms : float;
}

(* A synthetic store of N generated apps streamed into the daemon, then
   K "updates": the same packages regenerated under a different seed, so
   each upload genuinely changes the app's body (and usually its
   footprint).  Selective re-analysis must reproduce a brute-force full
   repair byte for byte (stripped reports) while dispatching strictly
   fewer scope bundles.  Both are timed cold: the update stream sees
   only new content, and the repair runs in its own daemon whose cache
   directory is emptied after an untimed ingest of the final store.  A
   third daemon replaying the final store through the update stream's
   cache directory measures the warm path. *)
let run_serve_bench ~mode () =
  header "App-store daemon: footprint-indexed selective re-analysis";
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
  let selective = stripped serve in
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
    (fun tier ->
      let tier = Filename.concat repair_dir tier in
      if Sys.is_directory tier then
        Array.iter
          (fun entry -> Sys.remove (Filename.concat tier entry))
          (Sys.readdir tier))
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
  let result =
    {
      sb_store = n;
      sb_updates = List.length updates;
      sb_selected =
        List.fold_left
          (fun acc v -> acc + v.Serve.vd_analyzed)
          0 update_verdicts;
      sb_dispatch_full = List.length updates * n;
      sb_selective =
        update_verdicts <> []
        && List.for_all
             (fun v -> v.Serve.vd_analyzed < v.Serve.vd_store_size)
             update_verdicts;
      sb_identical = selective = reference;
      sb_warm_identical = stripped serve2 = reference;
      sb_index_consistent =
        List.for_all
          (fun d -> Footprint.equal (Serve.index d) (Serve.rebuilt_index d))
          [ serve; repair; serve2 ];
      sb_cold_ms = cold_ms;
      sb_update_ms = update_ms;
      sb_repair_ms = repair_ms;
      sb_warm_ms = warm_ms;
      sb_p50_ms = percentile 0.50 latencies;
      sb_p99_ms = percentile 0.99 latencies;
    }
  in
  let apps_per_sec =
    if cold_ms > 0.0 then float_of_int n /. (cold_ms /. 1000.0) else 0.0
  in
  let json =
    Json.Obj
      [
        ("mode", Json.Str mode);
        ("provenance", Lazy.force provenance);
        ("store_apps", Json.Int result.sb_store);
        ("updates", Json.Int result.sb_updates);
        ("bundles_selected", Json.Int result.sb_selected);
        ("bundles_full_repair", Json.Int result.sb_dispatch_full);
        ("selective", Json.Bool result.sb_selective);
        ("identical_stripped_reports", Json.Bool result.sb_identical);
        ("warm_identical_stripped_reports", Json.Bool result.sb_warm_identical);
        ("index_consistent", Json.Bool result.sb_index_consistent);
        ("cold_ms", Json.Float cold_ms);
        ("update_stream_ms", Json.Float update_ms);
        ("full_repair_ms", Json.Float repair_ms);
        ("warm_ms", Json.Float warm_ms);
        ("upload_to_verdict_p50_ms", Json.Float result.sb_p50_ms);
        ("upload_to_verdict_p99_ms", Json.Float result.sb_p99_ms);
        ("cold_apps_per_sec", Json.Float apps_per_sec);
      ]
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc (Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Printf.printf
    "store:   %d apps ingested cold in %.1f ms (%.1f apps/s)\n\
     updates: %d uploads re-analyzed %d bundles (full repair: %d) in %.1f ms\n\
     repair:  %.1f ms (cold)   warm replay: %.1f ms\n\
     latency: p50 %.1f ms  p99 %.1f ms (upload -> verdict)\n"
    n cold_ms apps_per_sec result.sb_updates result.sb_selected
    result.sb_dispatch_full update_ms repair_ms warm_ms result.sb_p50_ms
    result.sb_p99_ms;
  Printf.printf
    "stripped reports identical (selective %b, warm %b), index consistent %b \
     -> BENCH_serve.json\n%!"
    result.sb_identical result.sb_warm_identical result.sb_index_consistent;
  record_history ~mode ~section:"serve"
    ~extra:
      [
        ("update_stream_ms", Json.Float update_ms);
        ("full_repair_ms", Json.Float repair_ms);
        ("p99_ms", Json.Float result.sb_p99_ms);
      ]
    cold_ms;
  result

(* Tier-1 gate for `dune runtest`: on a tiny store, each upload's
   selective re-analysis must dispatch strictly fewer bundles than the
   store holds yet leave every stripped report byte-identical to a
   brute-force full repair, and the hot-updated footprint index must
   equal a from-scratch rebuild. *)
let run_serve_smoke () =
  header "Serve smoke: selective re-analysis identity (tier-1 gate)";
  let failures = ref [] in
  let expect cond msg = if not cond then failures := msg :: !failures in
  let r = run_serve_bench ~mode:"smoke" () in
  expect r.sb_identical
    "selective stripped reports differ from the full-repair reference";
  expect r.sb_selective
    "an update re-analyzed the whole store (expected a strict subset)";
  expect
    (r.sb_selected < r.sb_dispatch_full)
    (Printf.sprintf
       "update stream dispatched %d bundles, full repair would dispatch %d"
       r.sb_selected r.sb_dispatch_full);
  expect r.sb_warm_identical
    "warm replay through the cache produced different stripped reports";
  expect r.sb_index_consistent
    "hot-updated footprint index differs from a from-scratch rebuild";
  match !failures with
  | [] -> Printf.printf "serve smoke: all gates passed\n%!"
  | fs ->
      List.iter (fun f -> Printf.printf "serve smoke FAILURE: %s\n" f) fs;
      exit 1

(* --- observability smoke (tier-1 gate) ------------------------------------- *)

(* Runs the demo bundle at -j 2 with the whole observability stack on —
   NDJSON log sink at debug level, GC profiling, metrics — and fails
   (exit 1) when the log stream stops being valid NDJSON, worker events
   stop arriving pid-tagged through the pool, per-pid timestamps go
   non-monotone (replay order broke), the rate limiter stops counting
   drops, the OpenMetrics export stops validating, GC deltas vanish
   from the translate/solve spans, or the span ring stops bounding
   retention.  All observability state is restored on the way out. *)
let run_obs_smoke () =
  header
    "Observability smoke: NDJSON log + OpenMetrics + GC profile (tier-1 gate)";
  let failures = ref [] in
  let expect cond msg = if not cond then failures := msg :: !failures in
  let log_path = Filename.temp_file "separ_obs_smoke" ".ndjson" in
  Trace.enable ();
  Metrics.enable ();
  Trace.set_profile_gc true;
  Trace.reset ();
  Metrics.reset ();
  Log.to_file log_path;
  Log.set_level Log.Debug;
  Log.reset ();
  let models =
    List.map Extract.extract [ Demo.navigation_app (); Demo.messenger_app () ]
  in
  let report = Ase.analyze ~jobs:2 (Bundle.of_models models) in
  expect
    (report.Ase.r_vulnerabilities <> [])
    "demo bundle produced no scenarios";
  (* The rate limiter: flood one event name past the per-window limit
     and check the overflow was counted, not written. *)
  for i = 1 to Log.default_rate_limit + 50 do
    Log.debug "obs.smoke_flood" ~fields:[ ("i", Trace.Int i) ]
  done;
  let _, suppressed = Log.stats () in
  expect (suppressed >= 50)
    (Printf.sprintf "rate limiter suppressed %d flood events (expected >= 50)"
       suppressed);
  Log.close ();
  (* Every line of the sink must be one well-formed envelope; worker
     events must be there under their own pids, in emission order. *)
  let lines =
    let ic = open_in log_path in
    let acc = ref [] in
    (try
       while true do
         let l = String.trim (input_line ic) in
         if l <> "" then acc := l :: !acc
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !acc
  in
  expect (lines <> []) "log sink captured no events";
  let parent = Unix.getpid () in
  let worker_pids : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let last_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun line ->
      match Json.parse line with
      | exception Json.Parse_error msg ->
          expect false
            (Printf.sprintf "log line is not valid JSON (%s): %s" msg line)
      | j -> (
          let ts = Option.bind (Json.member "ts_us" j) Json.to_float in
          let level = Option.bind (Json.member "level" j) Json.to_str in
          let event = Option.bind (Json.member "event" j) Json.to_str in
          let pid = Option.bind (Json.member "pid" j) Json.to_float in
          expect (ts <> None) "log event without numeric ts_us";
          expect
            (match level with
            | Some ("debug" | "info" | "warn" | "error") -> true
            | _ -> false)
            "log event with missing or unknown level";
          expect (event <> None) "log event without event name";
          match (pid, ts) with
          | Some p, Some t ->
              let p = int_of_float p in
              if p <> parent && event = Some "ase.signature" then
                Hashtbl.replace worker_pids p ();
              let prev =
                Option.value ~default:neg_infinity (Hashtbl.find_opt last_ts p)
              in
              expect (t >= prev)
                (Printf.sprintf "per-pid timestamps not monotone (pid %d)" p);
              Hashtbl.replace last_ts p t
          | _ -> expect false "log event without pid"))
    lines;
  expect
    (Hashtbl.length worker_pids >= 1)
    "no pid-tagged worker ase.signature events reached the parent sink";
  (* GC profiling: the translate and solve phases allocate, so their
     spans must carry non-zero minor-heap deltas, and the top-level
     folds must have moved the gc.* counters. *)
  let gc_minor name =
    Trace.fold_spans
      (fun acc sp ->
        if sp.Trace.sp_name = name then
          match List.assoc_opt "gc.minor_words" sp.Trace.sp_attrs with
          | Some (Trace.Float f) -> Float.max acc f
          | _ -> acc
        else acc)
      0.0
  in
  expect
    (gc_minor "relog.translate" > 0.0)
    "relog.translate spans carry no gc.minor_words delta";
  expect (gc_minor "sat.solve" > 0.0)
    "sat.solve spans carry no gc.minor_words delta";
  expect
    (Metrics.counter_value (Metrics.counter "gc.minor_words") > 0)
    "gc.minor_words counter never moved with --profile-gc semantics on";
  (* The OpenMetrics export must satisfy its own well-formedness
     checker (TYPE'd families, cumulative ascending buckets, +Inf =
     _count, trailing # EOF). *)
  (match Telemetry.openmetrics_check (Telemetry.openmetrics_string ()) with
  | Ok () -> ()
  | Error msg -> expect false ("OpenMetrics export fails validation: " ^ msg));
  (* The span ring stays bounded and keeps the newest roots. *)
  let cap_before = Trace.root_cap () in
  Trace.set_root_cap 2;
  List.iter
    (fun name -> Trace.with_span name (fun () -> ()))
    [ "obs.ring_a"; "obs.ring_b"; "obs.ring_c" ];
  expect
    (List.length (Trace.roots ()) = 2)
    "span ring retains more roots than its cap";
  expect (Trace.dropped_roots () > 0) "span ring dropped roots went uncounted";
  (match List.rev (Trace.roots ()) with
  | newest :: _ ->
      expect
        (newest.Trace.sp_name = "obs.ring_c")
        "span ring did not keep the newest root"
  | [] -> ());
  Trace.set_root_cap cap_before;
  (* restore pristine observability state for whatever runs next *)
  Log.set_level Log.Info;
  Log.set_rate_limit Log.default_rate_limit;
  Log.reset ();
  Trace.set_profile_gc false;
  Trace.disable ();
  Metrics.disable ();
  Trace.reset ();
  Metrics.reset ();
  (try Sys.remove log_path with Sys_error _ -> ());
  match !failures with
  | [] ->
      Printf.printf "obs smoke: %d log lines, all gates passed\n%!"
        (List.length lines)
  | fs ->
      List.iter (fun f -> Printf.printf "obs smoke FAILURE: %s\n" f) fs;
      exit 1

(* --- benchdiff smoke (tier-1 gate) ------------------------------------------ *)

(* Exercises the trajectory regression gate against synthetic history
   files, so the gate is deterministic under `dune runtest`: a missing
   history skips, a single entry has no baseline, a stable trend
   passes, an inflated latest run is flagged, smoke- and full-mode
   entries never cross-compare, malformed lines are counted but not
   fatal. *)
let run_benchdiff_smoke () =
  header "Benchdiff smoke: bench-trajectory regression gate (tier-1 gate)";
  let failures = ref [] in
  let expect cond msg = if not cond then failures := msg :: !failures in
  let tmp = Filename.temp_file "separ_benchdiff" ".ndjson" in
  Sys.remove tmp;
  (* missing history: `separ benchdiff` skips (exit 0) rather than fail *)
  let entries, malformed = History.load ~path:tmp in
  expect
    (entries = [] && malformed = 0)
    "missing history file did not load as empty";
  expect (History.diff entries = []) "missing history produced section diffs";
  Printf.printf
    "benchdiff smoke: no-baseline case SKIPPED by the gate (exit 0), as \
     specified\n";
  let entry ?(mode = "full") wall_ms =
    {
      History.e_section = "solver";
      e_mode = mode;
      e_wall_ms = wall_ms;
      e_provenance = Json.Null;
      e_extra = [];
    }
  in
  (* one entry: nothing to compare against *)
  History.append ~path:tmp (entry 100.0);
  (match History.diff (fst (History.load ~path:tmp)) with
  | [ d ] ->
      expect
        (d.History.sd_status = History.No_baseline)
        "single entry did not report No_baseline"
  | ds ->
      expect false
        (Printf.sprintf "expected 1 section diff, got %d" (List.length ds)));
  (* stable trend: identical runs must pass *)
  History.append ~path:tmp (entry 102.0);
  History.append ~path:tmp (entry 98.0);
  History.append ~path:tmp (entry 100.0);
  (match History.diff (fst (History.load ~path:tmp)) with
  | [ d ] ->
      expect (d.History.sd_status = History.Ok)
        "stable trend flagged as regression";
      expect (d.History.sd_samples = 3)
        (Printf.sprintf "baseline over %d samples (expected 3)"
           d.History.sd_samples)
  | ds ->
      expect false
        (Printf.sprintf "expected 1 section diff, got %d" (List.length ds)));
  (* a smoke-mode run must not borrow the full-mode baseline *)
  History.append ~path:tmp (entry ~mode:"smoke" 5.0);
  (match
     List.find_opt
       (fun d -> d.History.sd_mode = "smoke")
       (History.diff (fst (History.load ~path:tmp)))
   with
  | Some d ->
      expect
        (d.History.sd_status = History.No_baseline)
        "smoke run compared against the full-mode baseline"
  | None -> expect false "smoke-mode entry produced no section diff");
  (* an inflated latest run must be flagged *)
  History.append ~path:tmp (entry 160.0);
  let regressed, _ = History.load ~path:tmp in
  (match
     List.find_opt (fun d -> d.History.sd_mode = "full") (History.diff regressed)
   with
  | Some d ->
      expect
        (d.History.sd_status = History.Regression)
        (Printf.sprintf "+60%% latest run not flagged (delta %.1f%%)"
           d.History.sd_delta_pct);
      expect
        (d.History.sd_delta_pct > History.default_threshold_pct)
        "regression delta did not exceed the default threshold"
  | None -> expect false "full-mode entries produced no section diff");
  (* malformed lines: skipped and counted, never fatal *)
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 tmp in
  output_string oc "{this is not json\n";
  close_out oc;
  let after, malformed = History.load ~path:tmp in
  expect (malformed = 1)
    (Printf.sprintf "%d malformed lines counted (expected 1)" malformed);
  expect
    (List.length after = List.length regressed)
    "a malformed line changed the parsed entry count";
  Sys.remove tmp;
  match !failures with
  | [] -> Printf.printf "benchdiff smoke: all gates passed\n%!"
  | fs ->
      List.iter (fun f -> Printf.printf "benchdiff smoke FAILURE: %s\n" f) fs;
      exit 1

(* --- Bechamel kernels ---------------------------------------------------------- *)

let run_kernels () =
  header "Bechamel micro-benchmarks of the pipeline stages";
  let open Bechamel in
  let apk = Demo.navigation_app () in
  let models =
    List.map Extract.extract [ Demo.navigation_app (); Demo.messenger_app () ]
  in
  let bundle = Bundle.of_models models in
  let policies = demo_policies () in
  let icc_apk = rq4_apps 50 in
  let tests =
    [
      (* Table I / Fig 5 kernel: static extraction of one app *)
      Test.make ~name:"ame_extract_app"
        (Staged.stage (fun () -> ignore (Extract.extract apk)));
      (* Table II kernel: encode + solve one signature *)
      Test.make ~name:"ase_synthesize_bundle"
        (Staged.stage (fun () ->
             ignore
               (Ase.analyze
                  ~signatures:[ List.hd (Signatures.all ()) ]
                  ~limit_per_sig:1 bundle)));
      (* RQ4 kernels: dispatch with and without the PEP hooks *)
      Test.make ~name:"runtime_icc_unhooked"
        (Staged.stage (fun () ->
             let d = Device.create () in
             Device.install d icc_apk;
             Device.start_component d ~pkg:"bench.icc" ~component:"Caller"));
      Test.make ~name:"runtime_icc_hooked"
        (Staged.stage (fun () ->
             let d = Device.create () in
             Device.install d icc_apk;
             Device.set_policies d policies [ "bench.icc" ];
             Device.set_enforcement d true;
             Device.start_component d ~pkg:"bench.icc" ~component:"Caller"));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 10) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let stats = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-26s %12.0f ns/run\n" name est
          | _ -> Printf.printf "%-26s (no estimate)\n" name)
        stats)
    tests;
  Printf.printf "%!";
  (* Solver counters for the same pipeline, persisted for trend tracking. *)
  ignore (run_solver_bench ~mode:"kernels" ())

(* --- compiled PDP / fleet soak (BENCH_enforce.json) ------------------------ *)

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

(* Nearest-bucket percentile estimate out of a metrics histogram: the
   upper bound of the bucket the [q]-quantile falls in, saturating at
   the last finite bound. *)
let hist_percentile h q =
  let total = Metrics.histogram_count h in
  if total = 0 then 0.0
  else begin
    let target =
      max 1 (int_of_float (ceil (q *. float_of_int total)))
    in
    let rec go acc last = function
      | [] -> last
      | (ub, c) :: rest ->
          let acc = acc + c in
          let last = if ub = infinity then last else ub in
          if acc >= target then last else go acc last rest
    in
    go 0 0.0 (Metrics.histogram_buckets h)
  end

type fleet_row = {
  fr_rules : int;
  fr_devices : int;
  fr_checks : int;
  fr_wall_ms : float;
  fr_checks_per_sec : float;
  fr_p50_us : float;
  fr_p99_us : float;
  fr_swaps : int;
  fr_swap_mean_us : float;
  fr_serializations : int;  (* must be 0: the fleet runs in-process *)
}

(* N devices sustaining ICC traffic against one store, with hot policy
   swaps interleaved between traffic waves. *)
let enforce_fleet ~mode ~rules ~devices =
  let st = Random.State.make [| 0xf1ee7; rules; devices |] in
  let store = enforce_store ~rules st in
  let rotated = match store with [] -> [] | p :: rest -> rest @ [ p ] in
  let apk = rq4_apps (if mode = "smoke" then 20 else 50) in
  let fleet =
    List.init devices (fun _ ->
        let d = Device.create () in
        Device.install d apk;
        Device.set_policies d store [ "bench.icc" ];
        Device.set_enforcement d true;
        d)
  in
  Metrics.reset ();
  let waves = if mode = "smoke" then 2 else 4 in
  let (), wall_ms =
    Trace.timed "bench.enforce.fleet" (fun () ->
        for w = 1 to waves do
          List.iter
            (fun d ->
              Device.start_component d ~pkg:"bench.icc" ~component:"Caller")
            fleet;
          (* hot swap under sustained traffic *)
          List.iter
            (fun d ->
              Device.swap_policies d (if w mod 2 = 0 then store else rotated))
            fleet
        done)
  in
  let count name = Metrics.counter_value (Metrics.counter name) in
  let checks = count "runtime.hook_checks" in
  let h_lat = Metrics.histogram "runtime.hook_latency_us" in
  let h_swap = Metrics.histogram "runtime.swap_latency_us" in
  {
    fr_rules = rules;
    fr_devices = devices;
    fr_checks = checks;
    fr_wall_ms = wall_ms;
    fr_checks_per_sec =
      (if wall_ms > 0.0 then float_of_int checks /. (wall_ms /. 1000.0)
       else 0.0);
    fr_p50_us = hist_percentile h_lat 0.50;
    fr_p99_us = hist_percentile h_lat 0.99;
    fr_swaps = count "runtime.policy_swaps";
    fr_swap_mean_us = Metrics.histogram_mean h_swap;
    fr_serializations = count "policy.serializations";
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

type enforce_bench = {
  eb_latency : enforce_latency list;
  eb_fleet : fleet_row list;
  eb_compiled_ratio : float;  (* compiled ns/check at 1000 rules vs 10 *)
  eb_linear_ratio : float;
  eb_identity_ok : bool;
  eb_reports_identical : bool;  (* Compiled vs Reference vs Ipc, bytes *)
  eb_fast_path_serializations : int;
  eb_ipc_serializations : int;
  eb_swaps : int;
  eb_wall_ms : float;
}

let run_enforce_bench ~mode () =
  header
    "Compiled PDP: per-check latency vs store size + device-fleet soak";
  let t_start = Unix.gettimeofday () in
  let was_enabled = Metrics.is_enabled () in
  Metrics.enable ();
  let sizes = [ 10; 100; 1000 ] in
  let latency = List.map (fun rules -> enforce_latency ~mode ~rules) sizes in
  let find_lat rules = List.find (fun l -> l.el_rules = rules) latency in
  let l10 = find_lat 10 and l1000 = find_lat 1000 in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let combos =
    if mode = "smoke" then [ (100, 1); (100, 8) ]
    else
      List.concat_map
        (fun rules -> List.map (fun d -> (rules, d)) [ 1; 8; 64 ])
        sizes
  in
  let fleet =
    List.map (fun (rules, devices) -> enforce_fleet ~mode ~rules ~devices) combos
  in
  let fast_ser =
    List.fold_left (fun acc r -> acc + r.fr_serializations) 0 fleet
  in
  let swaps = List.fold_left (fun acc r -> acc + r.fr_swaps) 0 fleet in
  (* byte-identity of full enforcement reports across PDP modes, and
     the serialization ledger: zero in-process, nonzero over IPC *)
  (* one store for all three modes: derived policy ids come from a
     global counter, so the store must be synthesized exactly once *)
  let mode_policies = demo_policies () in
  let rep_compiled = enforce_mode_report ~policies:mode_policies Device.Compiled in
  let rep_reference =
    enforce_mode_report ~policies:mode_policies Device.Reference
  in
  Metrics.reset ();
  let rep_ipc = enforce_mode_report ~policies:mode_policies Device.Ipc in
  let ipc_ser =
    Metrics.counter_value (Metrics.counter "policy.serializations")
  in
  if not was_enabled then Metrics.disable ();
  let result =
    {
      eb_latency = latency;
      eb_fleet = fleet;
      eb_compiled_ratio = ratio l1000.el_compiled_ns l10.el_compiled_ns;
      eb_linear_ratio = ratio l1000.el_linear_ns l10.el_linear_ns;
      eb_identity_ok = List.for_all (fun l -> l.el_identical) latency;
      eb_reports_identical =
        rep_compiled = rep_reference && rep_reference = rep_ipc;
      eb_fast_path_serializations = fast_ser;
      eb_ipc_serializations = ipc_ser;
      eb_swaps = swaps;
      eb_wall_ms = (Unix.gettimeofday () -. t_start) *. 1000.0;
    }
  in
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
  let fleet_json r =
    Json.Obj
      [
        ("rules", Json.Int r.fr_rules);
        ("devices", Json.Int r.fr_devices);
        ("hook_checks", Json.Int r.fr_checks);
        ("wall_ms", Json.Float r.fr_wall_ms);
        ("checks_per_sec", Json.Float r.fr_checks_per_sec);
        ("hook_p50_us", Json.Float r.fr_p50_us);
        ("hook_p99_us", Json.Float r.fr_p99_us);
        ("policy_swaps", Json.Int r.fr_swaps);
        ("swap_mean_us", Json.Float r.fr_swap_mean_us);
        ("serializations", Json.Int r.fr_serializations);
      ]
  in
  let json =
    Json.Obj
      [
        ("mode", Json.Str mode);
        ("provenance", Lazy.force provenance);
        ("latency_vs_store_size", Json.List (List.map latency_json latency));
        ("fleet_soak", Json.List (List.map fleet_json fleet));
        ("compiled_1000_vs_10_ratio", Json.Float result.eb_compiled_ratio);
        ("linear_1000_vs_10_ratio", Json.Float result.eb_linear_ratio);
        ("identity_ok", Json.Bool result.eb_identity_ok);
        ("reports_identical_across_modes", Json.Bool result.eb_reports_identical);
        ( "fast_path_serializations",
          Json.Int result.eb_fast_path_serializations );
        ("ipc_serializations", Json.Int result.eb_ipc_serializations);
      ]
  in
  let oc = open_out "BENCH_enforce.json" in
  output_string oc (Json.to_string json);
  output_string oc "\n";
  close_out oc;
  List.iter
    (fun l ->
      Printf.printf
        "%5d rules: linear %8.0f ns/check, compiled %8.0f ns/check (%.1fx)\n"
        l.el_rules l.el_linear_ns l.el_compiled_ns
        (ratio l.el_linear_ns l.el_compiled_ns))
    latency;
  Printf.printf
    "store 10 -> 1000 rules: compiled per-check cost x%.2f (linear x%.2f)\n"
    result.eb_compiled_ratio result.eb_linear_ratio;
  List.iter
    (fun r ->
      Printf.printf
        "%5d rules x %2d devices: %6d checks, %8.0f checks/s, p50 <= %.1f \
         us, p99 <= %.1f us, %d swaps (mean %.0f us)\n"
        r.fr_rules r.fr_devices r.fr_checks r.fr_checks_per_sec r.fr_p50_us
        r.fr_p99_us r.fr_swaps r.fr_swap_mean_us)
    fleet;
  Printf.printf
    "decisions identical: %b; reports byte-identical across modes: %b\n"
    result.eb_identity_ok result.eb_reports_identical;
  Printf.printf
    "serializations: %d in-process (fast path), %d over IPC -> \
     BENCH_enforce.json\n%!"
    result.eb_fast_path_serializations result.eb_ipc_serializations;
  record_history ~mode ~section:"enforce"
    ~extra:
      [
        ("compiled_1000_ns", Json.Float l1000.el_compiled_ns);
        ("compiled_ratio", Json.Float result.eb_compiled_ratio);
      ]
    result.eb_wall_ms;
  result

(* Tier-1 gate for `dune runtest`: the compiled PDP must agree with the
   reference decide on verdict and deciding-policy id for every sampled
   event at every store size; full enforcement reports must be
   byte-identical across Compiled/Reference/Ipc modes; the in-process
   fleet must perform zero event serializations while the IPC replay
   performs some; hot swaps must be observed; and the compiled matcher
   must beat the linear scan at 1000 rules. *)
let run_enforce_smoke () =
  header "Enforce smoke: compiled-PDP identity + zero-copy hook (tier-1 gate)";
  let failures = ref [] in
  let expect cond msg = if not cond then failures := msg :: !failures in
  let r = run_enforce_bench ~mode:"smoke" () in
  expect r.eb_identity_ok
    "compiled PDP disagrees with reference decide (verdict or policy id)";
  expect r.eb_reports_identical
    "enforcement reports differ across Compiled/Reference/Ipc PDP modes";
  expect
    (r.eb_fast_path_serializations = 0)
    (Printf.sprintf
       "in-process fleet performed %d event serializations (expected 0)"
       r.eb_fast_path_serializations);
  expect
    (r.eb_ipc_serializations > 0)
    "IPC-mode replay performed no event serializations (expected > 0)";
  expect (r.eb_swaps > 0) "fleet soak recorded no hot policy swaps";
  (let l1000 = List.find (fun l -> l.el_rules = 1000) r.eb_latency in
   expect
     (l1000.el_compiled_ns < l1000.el_linear_ns)
     (Printf.sprintf
        "compiled PDP not faster than linear scan at 1000 rules (%.0f >= \
         %.0f ns/check)"
        l1000.el_compiled_ns l1000.el_linear_ns));
  match !failures with
  | [] -> Printf.printf "enforce smoke: all gates passed\n%!"
  | fs ->
      List.iter (fun f -> Printf.printf "enforce smoke FAILURE: %s\n" f) fs;
      exit 1

(* --- driver ----------------------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv in
  let has name = List.mem name args in
  let opt name default =
    let rec go = function
      | a :: b :: _ when a = name -> int_of_string b
      | _ :: rest -> go rest
      | [] -> default
    in
    go args
  in
  let all = List.length args <= 1 || has "all" in
  (* [--trace] records the whole run and writes trace.json at exit. *)
  let tracing = has "--trace" in
  if tracing then begin
    Trace.enable ();
    Metrics.enable ()
  end;
  if has "--smoke" then run_smoke ();
  if has "--telemetry-smoke" then run_telemetry_smoke ();
  if has "--parallel-smoke" then run_parallel_smoke ();
  if has "--cache-smoke" then run_cache_smoke ();
  if has "--serve-smoke" then run_serve_smoke ();
  if has "--obs-smoke" then run_obs_smoke ();
  if has "--benchdiff-smoke" then run_benchdiff_smoke ();
  if has "--enforce-smoke" then run_enforce_smoke ();
  if all || has "table1" then run_table1 ();
  if all || has "parallel" then ignore (run_parallel_bench ~mode:"full" ());
  if all || has "cache" then ignore (run_cache_bench ~mode:"full" ());
  if all || has "serve" then ignore (run_serve_bench ~mode:"full" ());
  if all || has "enforce" then ignore (run_enforce_bench ~mode:"full" ());
  if all || has "flowbench" then run_flowbench ();
  if all || has "scenario" then run_scenario ();
  if all || has "fig5" then run_fig5 ~apps:(opt "--apps" 4000) ();
  if all || has "table2" then run_table2 ~bundles:(opt "--bundles" 10) ();
  if all || has "rq2" then run_rq2 ~bundles:(opt "--bundles" 80) ();
  if all || has "rq4" then run_rq4 ();
  if all || has "ablation-minimal" then run_ablation_minimal ();
  if all || has "ablation-context" then run_ablation_context ();
  if all || has "ablation-pruning" then run_ablation_pruning ();
  if all || has "ablation-incremental" then run_ablation_incremental ();
  if all || has "kernels" then run_kernels ();
  if tracing then begin
    Separ_report.Telemetry.write_trace "trace.json";
    Printf.printf "\nwrote Chrome trace to trace.json (load in \
                   chrome://tracing or https://ui.perfetto.dev)\n%!"
  end
