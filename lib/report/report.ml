(* Machine-readable reports of analysis results: bundle statistics,
   vulnerabilities with their scenarios, and the synthesized policies,
   as JSON.  Consumed by the CLI's [--format json]. *)

open Separ_android
open Separ_ame
open Separ_specs
module Policy = Separ_policy.Policy
module Ase = Separ_ase.Ase
module Solve = Separ_relog.Solve

let of_mal_intent (mi : Scenario.mal_intent) =
  Json.Obj
    [
      ("target", Json.of_option (fun s -> Json.Str s) mi.Scenario.mi_target);
      ("action", Json.of_option (fun s -> Json.Str s) mi.Scenario.mi_action);
      ("categories", Json.strs mi.Scenario.mi_categories);
      ("data_type", Json.of_option (fun s -> Json.Str s) mi.Scenario.mi_data_type);
      ( "data_scheme",
        Json.of_option (fun s -> Json.Str s) mi.Scenario.mi_data_scheme );
      ("data_host", Json.of_option (fun s -> Json.Str s) mi.Scenario.mi_data_host);
      ("extras", Json.strs (List.map Resource.to_string mi.Scenario.mi_extras));
      ( "delivery",
        Json.Str (Component.kind_to_string mi.Scenario.mi_delivery) );
    ]

let of_mal_filter (mf : Scenario.mal_filter) =
  Json.Obj
    [
      ("actions", Json.strs mf.Scenario.mf_actions);
      ("categories", Json.strs mf.Scenario.mf_categories);
      ("data_types", Json.strs mf.Scenario.mf_data_types);
      ("data_schemes", Json.strs mf.Scenario.mf_data_schemes);
      ("data_hosts", Json.strs mf.Scenario.mf_data_hosts);
    ]

let of_scenario (sc : Scenario.t) =
  Json.Obj
    [
      ("kind", Json.Str sc.Scenario.sc_kind);
      ( "witnesses",
        Json.Obj
          (List.map
             (fun (name, atoms) -> (name, Json.strs atoms))
             sc.Scenario.sc_witnesses) );
      ( "malicious_intent",
        Json.of_option of_mal_intent sc.Scenario.sc_mal_intent );
      ( "malicious_filter",
        Json.of_option of_mal_filter sc.Scenario.sc_mal_filter );
      ("description", Json.Str sc.Scenario.sc_description);
    ]

let of_condition c = Json.Str (Policy.condition_to_string c)

let of_policy (p : Policy.t) =
  Json.Obj
    [
      ("id", Json.Str p.Policy.p_id);
      ("event", Json.Str (Policy.event_to_string p.Policy.p_event));
      ("conditions", Json.List (List.map of_condition p.Policy.p_conditions));
      ("action", Json.Str (Policy.action_to_string p.Policy.p_action));
      ("reason", Json.Str p.Policy.p_reason);
    ]

let of_vulnerability (v : Ase.vulnerability) =
  Json.Obj
    [
      ("kind", Json.Str v.Ase.v_kind);
      ("components", Json.strs v.Ase.v_components);
      ("scenario", of_scenario v.Ase.v_scenario);
    ]

(* CDCL solver counters, shared between the analysis report and the
   solver benchmark (BENCH_solver.json). *)
let of_solver_stats (s : Separ_sat.Solver.stats_record) =
  let open Separ_sat.Solver in
  Json.Obj
    [
      ("variables", Json.Int s.s_vars);
      ("clauses", Json.Int s.s_clauses);
      ("learnts", Json.Int s.s_learnts);
      ("peak_learnts", Json.Int s.s_peak_learnts);
      ("conflicts", Json.Int s.s_conflicts);
      ("decisions", Json.Int s.s_decisions);
      ("propagations", Json.Int s.s_propagations);
      ("restarts", Json.Int s.s_restarts);
      ("db_reductions", Json.Int s.s_db_reductions);
      ("learnts_deleted", Json.Int s.s_learnts_deleted);
      ("literals_minimized", Json.Int s.s_lits_minimized);
      ("activation_vars_live", Json.Int s.s_act_live);
      ("activation_vars_retired", Json.Int s.s_act_retired);
    ]

(* What one signature's session cost on top of the state its solver
   already held — per-signature rows plus the aggregated sharing
   counters of the shared-encoding ASE path. *)
let of_sig_delta (kind, (st : Solve.stats)) =
  Json.Obj
    [
      ("kind", Json.Str kind);
      ("vars", Json.Int st.Solve.delta_vars);
      ("clauses", Json.Int st.Solve.delta_clauses);
      ("gates", Json.Int st.Solve.delta_gates);
      ("translate_cache_hits", Json.Int st.Solve.cache_hits);
      ("translate_cache_misses", Json.Int st.Solve.cache_misses);
      ("hashcons_hits", Json.Int st.Solve.hc_hits);
      ("hashcons_misses", Json.Int st.Solve.hc_misses);
      ("reused_clauses", Json.Int st.Solve.reused_clauses);
      ("reused_learnts", Json.Int st.Solve.reused_learnts);
      ("construction_ms", Json.Float st.Solve.translation_ms);
      ("solving_ms", Json.Float st.Solve.solving_ms);
    ]

(* One counter summed over a report's per-signature sessions. *)
let sum_deltas (report : Ase.report) f =
  List.fold_left (fun acc (_, st) -> acc + f st) 0 report.Ase.r_sig_deltas

let of_incremental (report : Ase.report) =
  let sum f = Json.Int (sum_deltas report f) in
  Json.Obj
    [
      ("enabled", Json.Bool (report.Ase.r_sig_deltas <> []));
      ("translate_cache_hits", sum (fun st -> st.Solve.cache_hits));
      ("translate_cache_misses", sum (fun st -> st.Solve.cache_misses));
      ("hashcons_hits", sum (fun st -> st.Solve.hc_hits));
      ("hashcons_misses", sum (fun st -> st.Solve.hc_misses));
      ("reused_clauses", sum (fun st -> st.Solve.reused_clauses));
      ("reused_learnts", sum (fun st -> st.Solve.reused_learnts));
      ( "per_signature",
        Json.List (List.map of_sig_delta report.Ase.r_sig_deltas) );
    ]

(* The text of [analyze --stats]: the CDCL counters, the summed sharing
   counters and one row per signature. *)
let stats_lines (report : Ase.report) =
  let s = report.Ase.r_solver in
  let sum = sum_deltas report in
  let open Separ_sat.Solver in
  let open Solve in
  Printf.sprintf
    "solver: vars=%d clauses=%d conflicts=%d decisions=%d props=%d \
     restarts=%d learnt-db: peak=%d reductions=%d deleted=%d \
     minimized-lits=%d activation-vars: live=%d retired=%d"
    s.s_vars s.s_clauses s.s_conflicts s.s_decisions s.s_propagations
    s.s_restarts s.s_peak_learnts s.s_db_reductions s.s_learnts_deleted
    s.s_lits_minimized s.s_act_live s.s_act_retired
  :: Printf.sprintf
       "sharing: translate-cache hits=%d misses=%d hash-cons hits=%d \
        misses=%d reused-clauses=%d reused-learnts=%d"
       (sum (fun st -> st.cache_hits))
       (sum (fun st -> st.cache_misses))
       (sum (fun st -> st.hc_hits))
       (sum (fun st -> st.hc_misses))
       (sum (fun st -> st.reused_clauses))
       (sum (fun st -> st.reused_learnts))
  :: List.map
       (fun (kind, st) ->
         Printf.sprintf
           "  %s: +%d vars +%d clauses +%d gates (construction %.1f ms, \
            solving %.1f ms)"
           kind st.delta_vars st.delta_clauses st.delta_gates
           st.translation_ms st.solving_ms)
       report.Ase.r_sig_deltas

(* Persistent-cache counters (hits, misses, stores, evictions, corrupt
   entries, swept tmp files).  [Ase.r_cache] is already sorted by name — JSON key
   order here is deterministic by construction. *)
let of_cache (report : Ase.report) =
  Json.Obj
    (("enabled", Json.Bool (report.Ase.r_cache <> []))
    :: List.map (fun (k, v) -> (k, Json.Int v)) report.Ase.r_cache)

let of_stats (s : Bundle.stats) =
  Json.Obj
    [
      ("apps", Json.Int s.Bundle.n_apps);
      ("components", Json.Int s.Bundle.n_components);
      ("intents", Json.Int s.Bundle.n_intents);
      ("intent_filters", Json.Int s.Bundle.n_intent_filters);
      ("paths", Json.Int s.Bundle.n_paths);
    ]

(* The complete analysis report.  When telemetry was enabled for the
   run, [?telemetry] merges the span tree (per-phase durations) and the
   metrics registry into the report. *)
let of_analysis ?telemetry ~(report : Ase.report) ~(policies : Policy.t list) ()
    =
  Json.Obj
    ([
       ("bundle", of_stats report.Ase.r_stats);
       ( "timing_ms",
         Json.Obj
           [
             ("construction", Json.Float report.Ase.r_construction_ms);
             ("solving", Json.Float report.Ase.r_solving_ms);
           ] );
       ("solver", of_solver_stats report.Ase.r_solver);
       ("incremental", of_incremental report);
       ("cache", of_cache report);
       ( "vulnerabilities",
         Json.List (List.map of_vulnerability report.Ase.r_vulnerabilities) );
       ( "degraded",
         Json.List
           (List.map
              (fun (d : Ase.degraded) ->
                Json.Obj
                  [
                    ("kind", Json.Str d.Ase.d_kind);
                    ("reason", Json.Str d.Ase.d_reason);
                  ])
              report.Ase.r_degraded) );
       ("truncated_signatures", Json.strs report.Ase.r_truncated);
       ("policies", Json.List (List.map of_policy policies));
     ]
    @
    match telemetry with
    | Some t -> [ ("telemetry", t) ]
    | None -> [])

let to_string ?(indent = true) ?telemetry ~report ~policies () =
  Json.to_string ~indent (of_analysis ?telemetry ~report ~policies ())
