(* ASE: the Analysis and Synthesis Engine.

   Given a bundle of extracted app models, ASE builds the relational
   problem for each registered vulnerability signature (framework facts +
   exact app bounds + the signature's exploit formula), asks the solver
   for *minimal* satisfying instances (the Aluminum role), and decodes
   each instance into an attack scenario.  Enumeration blocks supersets
   of already-reported scenarios, so each result is a genuinely distinct
   exploit.

   Signatures are independent problems, so [analyze_many ~jobs] (and
   [analyze], its one-bundle case) partitions (bundle, signature shard)
   tasks across a fork-based worker pool; per-signature solve budgets and
   crash isolation mean one pathological signature degrades to a
   recorded [degraded] entry instead of hanging or aborting the run.

   Signatures sharing an encoding config also share one solver: the
   bundle-common encoding is built once ([Encode.encode_bundle] +
   [Solve.prepare_base]), and each signature's witness relations and
   exploit formula ride on an activation-literal delta session
   ([Solve.attach]), so Tseitin work is not repeated and CDCL learnt
   clauses persist across signatures.  Minimization is canonical
   (solver-state independent), so the scenarios — and hence the stripped
   report — are byte-identical to solving each signature from scratch
   ([run_signature], the reference the tests compare against). *)

open Separ_relog
open Separ_ame
open Separ_specs
module Trace = Separ_obs.Trace
module Metrics = Separ_obs.Metrics
module Log = Separ_obs.Log
module Pool = Separ_exec.Pool

let c_scenarios = Metrics.counter "ase.scenarios"
let c_signatures = Metrics.counter "ase.signatures_run"
let c_degraded = Metrics.counter "ase.degraded_signatures"

type vulnerability = {
  v_kind : string;
  v_scenario : Scenario.t;
  v_components : string list; (* victim components involved *)
}

(* A signature whose analysis did not complete: its solve budget ran
   out, or its worker process died.  Scenarios found before the
   degradation are still reported; the entry records the gap. *)
type degraded = {
  d_kind : string; (* signature name *)
  d_reason : string; (* "budget_exhausted" or "worker_crashed: ..." *)
}

type sig_outcome = Complete | Budget_exhausted

let outcome_name = function
  | Complete -> "complete"
  | Budget_exhausted -> "budget_exhausted"

(* Everything one signature's run produces; returned by value so the
   worker pool can marshal it across the process boundary. *)
type sig_result = {
  sr_scenarios : Scenario.t list;
  sr_truncated : bool; (* enumeration cut off at the limit *)
  sr_outcome : sig_outcome;
  sr_stats : Solve.stats;
}

type report = {
  r_stats : Bundle.stats;
  r_vulnerabilities : vulnerability list;
  r_degraded : degraded list; (* in signature order *)
  r_truncated : string list; (* signatures whose enumeration hit the limit *)
  r_construction_ms : float; (* translation to CNF (Table II) *)
  r_solving_ms : float;      (* SAT search (Table II) *)
  r_vars : int;
  r_clauses : int;
  r_solver : Separ_sat.Solver.stats_record;
  (* CDCL counters aggregated over the shared per-config solvers *)
  r_sig_deltas : (string * Solve.stats) list;
  (* per signature, in signature order: what its session added on top of
     the shared base ([Solve.empty_stats] for a replayed verdict) *)
  r_cache : (string * int) list;
  (* persistent-cache counters (hits, misses, stores, evictions,
     corrupt), sorted by name; [] when no cache was used *)
}

(* The device components implicated in a scenario: component witnesses,
   senders of witness intents, and the malicious intent's explicit
   target. *)
let victim_components (bundle : Bundle.t) (s : Scenario.t) =
  let intent_sender id =
    List.find_map
      (fun (_, c, i) ->
        if i.App_model.im_id = id then Some c.App_model.cm_name else None)
      (Bundle.all_intents bundle)
  in
  let of_witness (_name, atoms) =
    List.concat_map
      (fun atom ->
        match Bundle.find_component bundle atom with
        | Some (_, c) -> [ c.App_model.cm_name ]
        | None -> (
            match intent_sender atom with Some c -> [ c ] | None -> []))
      atoms
  in
  let from_mal_target =
    match s.Scenario.sc_mal_intent with
    | Some { Scenario.mi_target = Some t; _ } -> [ t ]
    | _ -> []
  in
  List.sort_uniq compare
    (List.concat_map of_witness s.Scenario.sc_witnesses @ from_mal_target)

(* Enumerate one minimal scenario per distinct witness valuation: the
   witnesses identify the victim elements, so further instances that
   only vary the synthesized payload are redundant for policy
   derivation.  Shared by the shared-base path and the from-scratch
   reference — the session's flavour is invisible here. *)
let enumerate_signature ~limit (sig_ : Signatures.t) (env : Encode.env)
    session =
  let witness_rels = List.map snd env.Encode.r_witnesses in
  let rec go acc k =
    if k >= limit then (List.rev acc, true, Complete)
    else
      match
        Trace.with_span "ase.scenario" (fun () ->
            match Solve.next ~minimal:true session with
            | Solve.Unsat -> None
            | Solve.Unknown -> Some (Error ())
            | Solve.Sat inst ->
                Solve.block_on session witness_rels;
                Metrics.incr c_scenarios;
                Some (Ok (Signatures.decode sig_ env inst)))
      with
      | None -> (List.rev acc, false, Complete)
      | Some (Error ()) -> (List.rev acc, false, Budget_exhausted)
      | Some (Ok sc) -> go (sc :: acc) (k + 1)
  in
  let scenarios, truncated, outcome = go [] 0 in
  (* Emitted here so both session flavours get one event per signature —
     inside the [ase.signature] span (and, at [-j N], inside the worker,
     so the event ships back pid-tagged). *)
  Log.info "ase.signature"
    ~fields:
      [
        ("signature", Trace.Str sig_.Signatures.name);
        ("scenarios", Trace.Int (List.length scenarios));
        ("truncated", Trace.Bool truncated);
        ("outcome", Trace.Str (outcome_name outcome));
      ];
  Trace.add_attr "scenarios" (Trace.Int (List.length scenarios));
  if truncated then Trace.add_attr "truncated" (Trace.Bool true);
  if outcome = Budget_exhausted then
    Trace.add_attr "outcome" (Trace.Str "budget_exhausted");
  {
    sr_scenarios = scenarios;
    sr_truncated = truncated;
    sr_outcome = outcome;
    sr_stats = Solve.stats session;
  }

(* Run one signature against a bundle, from scratch: fresh encoding,
   fresh solver.  [analyze] never dispatches this; it is the reference
   the tests compare the shared-base path against.  [budget], if given,
   bounds the signature's whole solver session; exhaustion
   mid-enumeration keeps the scenarios found so far and marks the result
   [Budget_exhausted]. *)
let run_signature ?(limit = Solve.default_enum_limit) ?budget bundle
    (sig_ : Signatures.t) =
  Trace.with_span "ase.signature"
    ~attrs:[ Trace.attr_str "signature" sig_.Signatures.name ]
    (fun () ->
      Metrics.incr c_signatures;
      let env =
        Trace.with_span "ase.encode" (fun () ->
            Encode.build ~config:sig_.Signatures.config
              ~witnesses:sig_.Signatures.witnesses bundle)
      in
      let problem =
        Solve.
          {
            bounds = env.Encode.bounds;
            constraints = env.Encode.facts @ [ sig_.Signatures.formula env ];
          }
      in
      let session = Solve.prepare ?budget problem in
      enumerate_signature ~limit sig_ env session)

(* --- persistent verdict cache -------------------------------------------- *)

module Store = Separ_cache.Store

(* Bump when the cached-verdict layout or the enumeration semantics
   change; old entries then key under a stale version and miss. *)
let ase_cache_version = "ase-v1"

(* What a cache hit restores: the signature's scenarios and whether the
   enumeration was cut off at the limit.  Only [Complete] outcomes are
   ever stored — a budget-exhausted run depends on solver state and
   wall-clock, so replaying it from cache would not be deterministic. *)
type cached_verdict = {
  cv_scenarios : Scenario.t list;
  cv_truncated : bool;
}

(* The per-(bundle, signature) cache key: the encoded problem projected
   onto the signature's relation support ({!Encode.problem_fingerprint}),
   plus everything else that can change the verdict — encode + verdict
   versions, encoding config, signature name, enumeration limit.  [env]
   is the signature's encoding (witnesses layered on, passive targets
   resolved) and [formula] its exploit formula over [env]. *)
let cache_key ~limit (sig_ : Signatures.t) env formula =
  Trace.with_span "ase.cache_fingerprint" (fun () ->
      Printf.sprintf "%s;%s;limit=%d;sig=%s;%s" ase_cache_version
        (Encode.config_fingerprint sig_.Signatures.config)
        limit sig_.Signatures.name
        (Encode.problem_fingerprint env (env.Encode.facts @ [ formula ])))

(* The key [analyze ?cache] computes for one signature, standalone — for
   tests and tooling that reason about invalidation. *)
let signature_fingerprint ?(limit = Solve.default_enum_limit) bundle
    (sig_ : Signatures.t) =
  let env =
    Encode.build ~config:sig_.Signatures.config
      ~witnesses:sig_.Signatures.witnesses
      (Bundle.update_passive_targets bundle)
  in
  cache_key ~limit sig_ env (sig_.Signatures.formula env)

(* --- shards ---------------------------------------------------------------- *)

(* Per-signature outcome inside a shard: kept marshal-safe so a forked
   worker can ship the whole shard's results back in one payload. *)
type item = Computed of sig_result | Crashed of string

type shard_result = {
  sh_items : item list; (* one per signature, in shard order *)
  (* totals of the shard's shared solvers, snapshotted after the last
     signature — per-signature sums would double-count the shared base *)
  sh_solver : Separ_sat.Solver.stats_record;
  sh_base_ms : float; (* base translation time, paid once per config *)
  sh_pid : int; (* the process that ran the shard *)
  (* how far the store handle's [Store.stats] moved during the shard
     ([] without a cache): a worker's copy of the handle counts where
     the parent never sees *)
  sh_cache : (string * int) list;
}

(* Run a shard of one bundle's signatures on shared per-config bases.
   The bundle encoding depends on the signature's [config] (it decides
   which adversary atoms exist): the first signature of each config pays
   for [Encode.encode_bundle], on which every signature of the config is
   keyed and solved.  A cache hit replays the stored verdict with zeroed
   stats; the solver base ([Solve.prepare_base]) is translated when the
   config's first signature misses, and each miss solves on a delta
   session attached to it.

   A signature that raises is recorded as [Crashed] without poisoning
   the shard: any half-attached delta is retired (its guarded clauses
   become permanently satisfied) and the next signature attaches to a
   clean base. *)
let run_shard ~limit ?budget ~cache bundle (sigs : Signatures.t list) =
  (* In config creation order, so the float totals below are summed in
     the same order every run. *)
  let bases : (Encode.config * (Encode.env * Solve.base Lazy.t)) list ref =
    ref []
  in
  let get_base config =
    match List.assoc_opt config !bases with
    | Some eb -> eb
    | None ->
        let env =
          Trace.with_span "ase.encode_base" (fun () ->
              Encode.encode_bundle ~config bundle)
        in
        (* Captured now: [Encode.encode_signature] binds witnesses into
           this [Bounds.t], and a base forced later must leave them to
           their signature's attach. *)
        let rels = Bounds.relations env.Encode.bounds in
        let base =
          lazy
            (Solve.prepare_base ~rels
               Solve.
                 { bounds = env.Encode.bounds; constraints = env.Encode.facts })
        in
        bases := !bases @ [ (config, (env, base)) ];
        (env, base)
  in
  let built () =
    List.filter_map
      (fun (_, (_, b)) -> if Lazy.is_val b then Some (Lazy.force b) else None)
      !bases
  in
  let solve (sig_ : Signatures.t) env formula base =
    Metrics.incr c_signatures;
    let session =
      Solve.attach ?budget (Lazy.force base)
        ~rels:(List.map snd env.Encode.r_witnesses)
        ~constraints:(Encode.witness_facts env @ [ formula ])
    in
    let result = enumerate_signature ~limit sig_ env session in
    Solve.detach session;
    result
  in
  let cache_stats () = Option.fold ~none:[] ~some:Store.stats cache in
  let cache_before = cache_stats () in
  let items =
    List.map
      (fun (sig_ : Signatures.t) ->
        Trace.with_span "ase.signature"
          ~attrs:[ Trace.attr_str "signature" sig_.Signatures.name ]
          (fun () ->
            try
              let base_env, base = get_base sig_.Signatures.config in
              let env =
                Trace.with_span "ase.encode" (fun () ->
                    Encode.encode_signature base_env sig_.Signatures.witnesses)
              in
              let formula = sig_.Signatures.formula env in
              match cache with
              | None -> Computed (solve sig_ env formula base)
              | Some store -> (
                  let key = cache_key ~limit sig_ env formula in
                  match
                    Trace.with_span "cache.find" (fun () ->
                        Store.find store ~key)
                  with
                  | Some cv ->
                      Computed
                        {
                          sr_scenarios = cv.cv_scenarios;
                          sr_truncated = cv.cv_truncated;
                          sr_outcome = Complete;
                          sr_stats = Solve.empty_stats;
                        }
                  | None ->
                      let sr = solve sig_ env formula base in
                      (* a budget-exhausted signature must be re-attempted
                         next run *)
                      if sr.sr_outcome = Complete then
                        Trace.with_span "cache.store" (fun () ->
                            ignore
                              (Store.store store ~key
                                 {
                                   cv_scenarios = sr.sr_scenarios;
                                   cv_truncated = sr.sr_truncated;
                                 }));
                      Computed sr)
            with e ->
              (* Best-effort cleanup: retiring the (at most one) live
                 activation literal permanently satisfies whatever this
                 signature managed to assert, so the shard's remaining
                 signatures see an intact base. *)
              List.iter
                (fun b ->
                  Separ_sat.Solver.retire_activation (Solve.base_solver b))
                (built ());
              Crashed (Printexc.to_string e)))
      sigs
  in
  let built = built () in
  {
    sh_items = items;
    sh_solver =
      List.fold_left
        (fun acc b -> Separ_sat.Solver.sum_stats acc (Solve.base_stats b))
        Separ_sat.Solver.empty_stats built;
    sh_base_ms =
      List.fold_left (fun acc b -> acc +. Solve.base_translation_ms b) 0.0 built;
    sh_pid = Unix.getpid ();
    sh_cache =
      List.map2
        (fun (k, n) (_, n0) -> (k, n - n0))
        (cache_stats ()) cache_before;
  }

(* Split [xs] into at most [k] contiguous, balanced shards (first shards
   get the remainder).  Contiguity keeps flattened shard results in
   original signature order. *)
let partition_contiguous k xs =
  let n = List.length xs in
  let k = max 1 (min k n) in
  let start i = (i * (n / k)) + min i (n mod k) in
  List.init k (fun i ->
      List.filteri (fun j _ -> j >= start i && j < start (i + 1)) xs)

(* --- reports --------------------------------------------------------------- *)

(* One bundle's report from the pool results of its shards, in shard
   order.  A shard whose worker died leaves every one of its signatures
   [worker_crashed].  Solver-level totals come from the shards:
   per-signature sums would double-count the shared bases. *)
let bundle_report ~signatures ~r_cache bundle shards results =
  let items =
    List.concat
      (List.map2
         (fun shard -> function
           | Pool.Failed msg -> List.map (fun _ -> Crashed msg) shard
           | Pool.Done sh -> sh.sh_items)
         shards results)
  in
  let done_ =
    List.filter_map
      (function Pool.Done sh -> Some sh | Pool.Failed _ -> None)
      results
  in
  let degraded = ref [] and truncated = ref [] and deltas = ref [] in
  let degrade name reason =
    Metrics.incr c_degraded;
    Log.warn "ase.degraded"
      ~fields:[ ("signature", Trace.Str name); ("reason", Trace.Str reason) ];
    degraded := { d_kind = name; d_reason = reason } :: !degraded
  in
  let vulnerabilities =
    List.concat
      (List.map2
         (fun sig_ item ->
           let name = sig_.Signatures.name in
           match item with
           | Crashed msg ->
               degrade name ("worker_crashed: " ^ msg);
               []
           | Computed sr ->
               deltas := (name, sr.sr_stats) :: !deltas;
               if sr.sr_outcome = Budget_exhausted then
                 degrade name "budget_exhausted";
               if sr.sr_truncated then truncated := name :: !truncated;
               List.map
                 (fun sc ->
                   {
                     v_kind = name;
                     v_scenario = sc;
                     v_components = victim_components bundle sc;
                   })
                 sr.sr_scenarios)
         signatures items)
  in
  let deltas = List.rev !deltas in
  let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs in
  let solver =
    List.fold_left
      (fun acc sh -> Separ_sat.Solver.sum_stats acc sh.sh_solver)
      Separ_sat.Solver.empty_stats done_
  in
  {
    r_stats = Bundle.stats bundle;
    r_vulnerabilities = vulnerabilities;
    r_degraded = List.rev !degraded;
    r_truncated = List.rev !truncated;
    (* construction = every base paid once + the per-signature deltas *)
    r_construction_ms =
      sum (fun sh -> sh.sh_base_ms) done_
      +. sum (fun (_, st) -> st.Solve.translation_ms) deltas;
    r_solving_ms = sum (fun (_, st) -> st.Solve.solving_ms) deltas;
    r_vars = solver.Separ_sat.Solver.s_vars;
    r_clauses = solver.Separ_sat.Solver.s_clauses;
    r_solver = solver;
    r_sig_deltas = deltas;
    r_cache;
  }

(* --- dispatch -------------------------------------------------------------- *)

(* The first [n] elements of [xs], and the rest. *)
let take n xs =
  let rec go i xs acc =
    match xs with
    | x :: rest when i > 0 -> go (i - 1) rest (x :: acc)
    | _ -> (List.rev acc, xs)
  in
  go n xs []

(* The one ASE dispatch path: every bundle is split into the same
   [jobs / #bundles] (at least 1) contiguous signature shards, and all
   (bundle, shard) tasks go to one pool run — inline at [jobs <= 1],
   forked otherwise, never nested.  Results come back in task order, so
   each bundle's report is assembled from its shards in signature order
   and, stripped, is byte-identical across [-j N] and cache states: the
   pool merge is deterministic and minimization canonical.  A worker
   dying degrades exactly the signatures of its in-flight tasks. *)
let analyze_many ?(signatures = Signatures.all ())
    ?(limit_per_sig = Solve.default_enum_limit) ?(jobs = 1) ?budget ?cache
    (bundles : Bundle.t list) : report list =
  Trace.with_span "ase.analyze"
    ~attrs:
      [
        Trace.attr_int "jobs" jobs;
        Trace.attr_int "bundles" (List.length bundles);
        Trace.attr_bool "cache" (Option.is_some cache);
      ]
    (fun () ->
      Log.info "ase.analyze"
        ~fields:
          [
            ("signatures", Trace.Int (List.length signatures));
            ("bundles", Trace.Int (List.length bundles));
            ("jobs", Trace.Int jobs);
            ("cache", Trace.Bool (Option.is_some cache));
          ];
      (* Resolve passive-intent targets first (Algorithm 1). *)
      let bundles =
        Trace.with_span "ase.resolve_targets" (fun () ->
            List.map Bundle.update_passive_targets bundles)
      in
      let shards =
        partition_contiguous (jobs / max 1 (List.length bundles)) signatures
      in
      let results =
        Pool.run ~jobs
          (List.concat_map
             (fun bundle ->
               List.map
                 (fun shard () ->
                   run_shard ~limit:limit_per_sig ?budget ~cache bundle shard)
                 shards)
             bundles)
      in
      (* Shards that ran inline already counted on the store handle. *)
      let r_cache =
        match cache with
        | None -> []
        | Some store ->
            List.iter
              (function
                | Pool.Done sh when sh.sh_pid <> Unix.getpid () ->
                    Store.credit store sh.sh_cache
                | Pool.Done _ | Pool.Failed _ -> ())
              results;
            Store.stats store
      in
      let rec per_bundle bundles results =
        match bundles with
        | [] -> []
        | bundle :: rest ->
            let mine, others = take (List.length shards) results in
            bundle_report ~signatures ~r_cache bundle shards mine
            :: per_bundle rest others
      in
      let reports = per_bundle bundles results in
      let total f = List.fold_left (fun acc r -> acc + List.length (f r)) 0 in
      Trace.add_attr "vulnerabilities"
        (Trace.Int (total (fun r -> r.r_vulnerabilities) reports));
      let degraded = total (fun r -> r.r_degraded) reports in
      if degraded > 0 then Trace.add_attr "degraded" (Trace.Int degraded);
      reports)

let analyze ?signatures ?limit_per_sig ?jobs ?budget ?cache bundle =
  List.hd
    (analyze_many ?signatures ?limit_per_sig ?jobs ?budget ?cache [ bundle ])

(* Forget everything about *how* the analysis ran, keeping only what it
   found.  Reports at any [-j], with or without the cache, must agree
   after stripping — the test suite asserts this byte-for-byte on the
   serialized report. *)
let strip_performance r =
  {
    r with
    r_construction_ms = 0.0;
    r_solving_ms = 0.0;
    r_vars = 0;
    r_clauses = 0;
    r_solver = Separ_sat.Solver.empty_stats;
    r_sig_deltas = [];
    r_cache = [];
  }

(* Apps having at least one vulnerability of the given kind. *)
let vulnerable_apps report bundle kind =
  let apps_of_cmp name =
    List.filter_map
      (fun app ->
        if List.exists (fun c -> c.App_model.cm_name = name)
             app.App_model.am_components
        then Some app.App_model.am_package
        else None)
      (Bundle.apps bundle)
  in
  List.sort_uniq compare
    (List.concat_map
       (fun v ->
         if v.v_kind = kind then List.concat_map apps_of_cmp v.v_components
         else [])
       report.r_vulnerabilities)

let pp_report ppf r =
  let s = r.r_solver in
  Fmt.pf ppf
    "@[<v>bundle: %d apps, %d components, %d intents, %d filters@,\
     %d vulnerabilities (construction %.1f ms, solving %.1f ms)@,\
     solver: %d conflicts, %d propagations, %d restarts; learnt db: \
     peak %d, %d reductions, %d deleted, %d literals minimized@,%a@]"
    r.r_stats.Bundle.n_apps r.r_stats.Bundle.n_components
    r.r_stats.Bundle.n_intents r.r_stats.Bundle.n_intent_filters
    (List.length r.r_vulnerabilities)
    r.r_construction_ms r.r_solving_ms
    s.Separ_sat.Solver.s_conflicts s.Separ_sat.Solver.s_propagations
    s.Separ_sat.Solver.s_restarts s.Separ_sat.Solver.s_peak_learnts
    s.Separ_sat.Solver.s_db_reductions s.Separ_sat.Solver.s_learnts_deleted
    s.Separ_sat.Solver.s_lits_minimized
    Fmt.(
      list ~sep:cut (fun ppf v ->
          pf ppf "- [%s] %s (components: %a)" v.v_kind
            v.v_scenario.Scenario.sc_description
            (list ~sep:(any ", ") string)
            v.v_components))
    r.r_vulnerabilities;
  if r.r_degraded <> [] then
    Fmt.pf ppf "@.degraded: %a"
      Fmt.(
        list ~sep:(any ", ") (fun ppf d ->
            pf ppf "%s (%s)" d.d_kind d.d_reason))
      r.r_degraded;
  if r.r_truncated <> [] then
    Fmt.pf ppf "@.truncated: %a"
      Fmt.(list ~sep:(any ", ") string)
      r.r_truncated
