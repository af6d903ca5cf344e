(* ASE: the Analysis and Synthesis Engine.

   Given a bundle of extracted app models, ASE builds the relational
   problem for each registered vulnerability signature (framework facts +
   exact app bounds + the signature's exploit formula), asks the solver
   for *minimal* satisfying instances (the Aluminum role), and decodes
   each instance into an attack scenario.  Enumeration blocks supersets
   of already-reported scenarios, so each result is a genuinely distinct
   exploit.

   Signatures are independent problems, so [analyze ~jobs] partitions
   them across a fork-based worker pool; per-signature solve budgets and
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
let c_blocked = Metrics.counter "ase.blocked_models"
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

(* What one signature cost on top of the shared base its solver already
   held (all zeros for a verdict replayed from the persistent cache). *)
type sig_delta = {
  sd_kind : string; (* signature name *)
  sd_vars : int;
  sd_clauses : int;
  sd_gates : int;
  sd_cache_hits : int; (* translate expr-cache *)
  sd_cache_misses : int;
  sd_hc_hits : int; (* circuit hash-cons *)
  sd_hc_misses : int;
  sd_reused_clauses : int; (* already in the solver at session start *)
  sd_reused_learnts : int; (* learnt clauses carried over *)
  sd_construction_ms : float;
  sd_solving_ms : float;
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
  r_sig_deltas : sig_delta list; (* per signature, in signature order *)
  r_cache : (string * int) list;
  (* persistent-cache counters (hits/misses per tier, stores, evictions,
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
                Metrics.incr c_blocked;
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

(* --- shared-base shards ---------------------------------------------------- *)

(* Per-signature outcome inside a shard: kept marshal-safe so a forked
   worker can ship the whole shard's results back in one payload. *)
type item = Computed of sig_result | Crashed of string

type shard_result = {
  sh_items : item list; (* one per signature, in shard order *)
  (* totals of the shard's shared solvers (one per distinct config),
     snapshotted after the last signature — *not* per-signature sums,
     which would double-count the shared base *)
  sh_vars : int;
  sh_clauses : int;
  sh_solver : Separ_sat.Solver.stats_record;
  sh_base_ms : float; (* base translation time, paid once per config *)
}

(* Run a shard of signatures on shared per-config bases.  The bundle
   encoding depends on the signature's [config] (it decides which
   adversary atoms exist), so signatures are grouped by config: the
   first signature of each config pays for [Encode.encode_bundle] and
   [Solve.prepare_base]; the rest attach delta sessions to it.

   A signature that raises is recorded as [Crashed] without poisoning
   the shard: any half-attached delta is retired (its guarded clauses
   become permanently satisfied) and the next signature attaches to a
   clean base. *)
let run_shard ?(limit = Solve.default_enum_limit) ?budget bundle
    (sigs : Signatures.t list) =
  let bases : (Encode.config, Encode.env * Solve.base) Hashtbl.t =
    Hashtbl.create 4
  in
  (* Config creation order: totals below fold over this list, not over
     [Hashtbl.iter], whose order is unspecified — summing floats in
     hash order would make shard timings (and anything derived from
     them) differ run to run. *)
  let base_order : (Encode.env * Solve.base) list ref = ref [] in
  let get_base config =
    match Hashtbl.find_opt bases config with
    | Some eb -> eb
    | None ->
        let env =
          Trace.with_span "ase.encode_base" (fun () ->
              Encode.encode_bundle ~config bundle)
        in
        let base =
          Solve.prepare_base
            Solve.
              { bounds = env.Encode.bounds; constraints = env.Encode.facts }
        in
        Hashtbl.add bases config (env, base);
        base_order := !base_order @ [ (env, base) ];
        (env, base)
  in
  let items =
    List.map
      (fun (sig_ : Signatures.t) ->
        Trace.with_span "ase.signature"
          ~attrs:[ Trace.attr_str "signature" sig_.Signatures.name ]
          (fun () ->
            Metrics.incr c_signatures;
            try
              let base_env, base = get_base sig_.Signatures.config in
              let env =
                Trace.with_span "ase.encode" (fun () ->
                    Encode.encode_signature base_env sig_.Signatures.witnesses)
              in
              let constraints =
                Encode.witness_facts env @ [ sig_.Signatures.formula env ]
              in
              let session =
                Solve.attach ?budget base
                  ~rels:(List.map snd env.Encode.r_witnesses)
                  ~constraints
              in
              let result = enumerate_signature ~limit sig_ env session in
              Solve.detach session;
              Computed result
            with e ->
              (* Best-effort cleanup: retiring the (at most one) live
                 activation literal permanently satisfies whatever this
                 signature managed to assert, so the shard's remaining
                 signatures see an intact base. *)
              List.iter
                (fun (_, b) ->
                  Separ_sat.Solver.retire_activation (Solve.base_solver b))
                !base_order;
              Crashed (Printexc.to_string e)))
      sigs
  in
  let sh_vars = ref 0 and sh_clauses = ref 0 and sh_base_ms = ref 0.0 in
  let sh_solver = ref Separ_sat.Solver.empty_stats in
  List.iter
    (fun (_, b) ->
      let s = Solve.base_solver b in
      sh_vars := !sh_vars + Separ_sat.Solver.n_vars s;
      sh_clauses := !sh_clauses + Separ_sat.Solver.n_clauses s;
      sh_solver := Separ_sat.Solver.sum_stats !sh_solver (Solve.base_stats b);
      sh_base_ms := !sh_base_ms +. Solve.base_translation_ms b)
    !base_order;
  {
    sh_items = items;
    sh_vars = !sh_vars;
    sh_clauses = !sh_clauses;
    sh_solver = !sh_solver;
    sh_base_ms = !sh_base_ms;
  }

(* Split [xs] into at most [k] contiguous, balanced shards (first shards
   get the remainder).  Contiguity keeps flattened shard results in
   original signature order. *)
let partition_contiguous k xs =
  let n = List.length xs in
  let k = max 1 (min k n) in
  let base = n / k and extra = n mod k in
  let rec take i xs acc =
    if i = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> (List.rev acc, [])
      | x :: rest -> take (i - 1) rest (x :: acc)
  in
  let rec go i xs acc =
    if i >= k then List.rev acc
    else
      let sz = base + if i < extra then 1 else 0 in
      let shard, rest = take sz xs [] in
      go (i + 1) rest (shard :: acc)
  in
  go 0 xs []

(* --- persistent verdict cache -------------------------------------------- *)

module Store = Separ_cache.Store

(* Bump when the cached-verdict layout or the enumeration semantics
   change; old entries then key under a stale version and miss. *)
let ase_cache_version = "ase-v1"
let ase_cache_tier = "ase"

(* What a cache hit restores: the signature's scenarios and whether the
   enumeration was cut off at the limit.  Only [Complete] outcomes are
   ever stored — a budget-exhausted run depends on solver state and
   wall-clock, so replaying it from cache would not be deterministic. *)
type cached_verdict = {
  cv_scenarios : Scenario.t list;
  cv_truncated : bool;
}

let zero_solve_stats =
  Solve.
    {
      translation_ms = 0.0;
      solving_ms = 0.0;
      n_vars = 0;
      n_clauses = 0;
      n_gates = 0;
      delta_vars = 0;
      delta_clauses = 0;
      delta_gates = 0;
      cache_hits = 0;
      cache_misses = 0;
      hc_hits = 0;
      hc_misses = 0;
      reused_clauses = 0;
      reused_learnts = 0;
      solver = Separ_sat.Solver.empty_stats;
    }

(* The per-(bundle, signature) cache key: the encoded problem projected
   onto the signature's relation support ({!Encode.problem_fingerprint}),
   plus everything else that can change the verdict — encode + verdict
   versions, encoding config, signature name, enumeration limit.  The
   bundle is expected to have passive targets already resolved. *)
let fingerprint_on ~limit base_env (sig_ : Signatures.t) =
  let env = Encode.encode_signature base_env sig_.Signatures.witnesses in
  let constraints = env.Encode.facts @ [ sig_.Signatures.formula env ] in
  Printf.sprintf "%s;%s;limit=%d;sig=%s;%s" ase_cache_version
    (Encode.config_fingerprint sig_.Signatures.config)
    limit sig_.Signatures.name
    (Encode.problem_fingerprint env constraints)

(* One fingerprint per signature, sharing one bundle encoding per
   distinct config (fingerprinting costs encode time, never solve
   time). *)
let fingerprints ~limit bundle (signatures : Signatures.t list) =
  let envs : (Encode.config, Encode.env) Hashtbl.t = Hashtbl.create 4 in
  let base_env config =
    match Hashtbl.find_opt envs config with
    | Some env -> env
    | None ->
        let env = Encode.encode_bundle ~config bundle in
        Hashtbl.add envs config env;
        env
  in
  List.map
    (fun (sig_ : Signatures.t) ->
      fingerprint_on ~limit (base_env sig_.Signatures.config) sig_)
    signatures

(* Standalone key computation, mirroring what [analyze ?cache] uses
   (passive targets resolved first) — for tests and tooling that reason
   about invalidation. *)
let signature_fingerprint ?(limit = Solve.default_enum_limit) bundle sig_ =
  let bundle = Bundle.update_passive_targets bundle in
  match fingerprints ~limit bundle [ sig_ ] with
  | [ fp ] -> fp
  | _ -> assert false

let delta_of name (st : Solve.stats) =
  {
    sd_kind = name;
    sd_vars = st.Solve.delta_vars;
    sd_clauses = st.Solve.delta_clauses;
    sd_gates = st.Solve.delta_gates;
    sd_cache_hits = st.Solve.cache_hits;
    sd_cache_misses = st.Solve.cache_misses;
    sd_hc_hits = st.Solve.hc_hits;
    sd_hc_misses = st.Solve.hc_misses;
    sd_reused_clauses = st.Solve.reused_clauses;
    sd_reused_learnts = st.Solve.reused_learnts;
    sd_construction_ms = st.Solve.translation_ms;
    sd_solving_ms = st.Solve.solving_ms;
  }

let analyze ?(signatures = Signatures.all ())
    ?(limit_per_sig = Solve.default_enum_limit) ?(jobs = 1) ?budget ?cache
    (bundle : Bundle.t) : report =
  Trace.with_span "ase.analyze"
    ~attrs:
      [
        Trace.attr_int "jobs" jobs;
        Trace.attr_bool "cache" (Option.is_some cache);
      ]
    (fun () ->
  Log.info "ase.analyze"
    ~fields:
      [
        ("signatures", Trace.Int (List.length signatures));
        ("jobs", Trace.Int jobs);
        ("cache", Trace.Bool (Option.is_some cache));
      ];
  (* Resolve passive-intent targets across the bundle first (Algorithm 1). *)
  let bundle =
    Trace.with_span "ase.resolve_targets" (fun () ->
        Bundle.update_passive_targets bundle)
  in
  (* Persistent-cache pre-pass: fingerprint every signature's encoded
     problem (encode work only — no solving), look each up, and keep
     only the misses for the solving pipeline below.  Hits replay the
     stored scenarios with zeroed per-signature stats. *)
  let fps =
    match cache with
    | None -> None
    | Some _ ->
        Some
          (Trace.with_span "ase.cache_fingerprint" (fun () ->
               fingerprints ~limit:limit_per_sig bundle signatures))
  in
  let cached : cached_verdict option list =
    match (cache, fps) with
    | Some store, Some fps ->
        List.map (fun fp -> Store.find store ~tier:ase_cache_tier ~key:fp) fps
    | _ -> List.map (fun _ -> None) signatures
  in
  let to_run =
    List.concat
      (List.map2
         (fun sig_ c -> match c with None -> [ sig_ ] | Some _ -> [])
         signatures cached)
  in
  (* One pool task per contiguous shard of signatures, sharing
     per-config solvers within the shard.  The pool runs tasks inline at
     [jobs <= 1] and in forked workers otherwise, and results come back
     in signature order — the merged (stripped) report is identical
     across [-j N], because minimization is canonical.  Solver-level
     totals are taken from the shards: per-signature sums would
     double-count the shared base. *)
  let shards = partition_contiguous jobs to_run in
  let shard_results =
    Pool.run ~jobs
      (List.map
         (fun shard () -> run_shard ~limit:limit_per_sig ?budget bundle shard)
         shards)
  in
  let computed_items =
    List.concat
      (List.map2
         (fun shard res ->
           match res with
           | Pool.Failed msg ->
               (* the whole shard's worker died: every signature in it is
                  unaccounted for *)
               List.map (fun _ -> Crashed msg) shard
           | Pool.Done sh -> sh.sh_items)
         shards shard_results)
  in
  let r_vars = ref 0 and r_clauses = ref 0 and base_ms = ref 0.0 in
  let r_solver = ref Separ_sat.Solver.empty_stats in
  List.iter
    (function
      | Pool.Failed _ -> ()
      | Pool.Done sh ->
          r_vars := !r_vars + sh.sh_vars;
          r_clauses := !r_clauses + sh.sh_clauses;
          base_ms := !base_ms +. sh.sh_base_ms;
          r_solver := Separ_sat.Solver.sum_stats !r_solver sh.sh_solver)
    shard_results;
  (* Store the freshly computed verdicts (complete outcomes only — a
     budget-exhausted or crashed signature must be re-attempted next
     run), then splice hits and computed results back into signature
     order. *)
  (match (cache, fps) with
  | Some store, Some fps ->
      let miss_fps =
        List.concat
          (List.map2
             (fun fp c -> match c with None -> [ fp ] | Some _ -> [])
             fps cached)
      in
      List.iter2
        (fun fp item ->
          match item with
          | Computed sr when sr.sr_outcome = Complete ->
              Store.store store ~tier:ase_cache_tier ~key:fp
                {
                  cv_scenarios = sr.sr_scenarios;
                  cv_truncated = sr.sr_truncated;
                }
          | Computed _ | Crashed _ -> ())
        miss_fps computed_items
  | _ -> ());
  let items =
    let rec merge cached computed =
      match cached with
      | [] -> []
      | Some cv :: rest ->
          Computed
            {
              sr_scenarios = cv.cv_scenarios;
              sr_truncated = cv.cv_truncated;
              sr_outcome = Complete;
              sr_stats = zero_solve_stats;
            }
          :: merge rest computed
      | None :: rest -> (
          match computed with
          | item :: more -> item :: merge rest more
          | [] -> assert false)
    in
    merge cached computed_items
  in
  let construction = ref 0.0 and solving = ref 0.0 in
  let degraded = ref [] in
  let truncated = ref [] in
  let deltas = ref [] in
  let vulnerabilities =
    List.concat
      (List.map2
         (fun sig_ item ->
           let name = sig_.Signatures.name in
           match item with
           | Crashed msg ->
               Metrics.incr c_degraded;
               Log.warn "ase.degraded"
                 ~fields:
                   [
                     ("signature", Trace.Str name);
                     ("reason", Trace.Str ("worker_crashed: " ^ msg));
                   ];
               degraded :=
                 { d_kind = name; d_reason = "worker_crashed: " ^ msg }
                 :: !degraded;
               []
           | Computed sr ->
               let stats = sr.sr_stats in
               construction := !construction +. stats.Solve.translation_ms;
               solving := !solving +. stats.Solve.solving_ms;
               deltas := delta_of name stats :: !deltas;
               if sr.sr_outcome = Budget_exhausted then begin
                 Metrics.incr c_degraded;
                 Log.warn "ase.degraded"
                   ~fields:
                     [
                       ("signature", Trace.Str name);
                       ("reason", Trace.Str "budget_exhausted");
                     ];
                 degraded :=
                   { d_kind = name; d_reason = "budget_exhausted" }
                   :: !degraded
               end;
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
  Trace.add_attr "vulnerabilities" (Trace.Int (List.length vulnerabilities));
  let degraded = List.rev !degraded in
  if degraded <> [] then
    Trace.add_attr "degraded" (Trace.Int (List.length degraded));
  {
    r_stats = Bundle.stats bundle;
    r_vulnerabilities = vulnerabilities;
    r_degraded = degraded;
    r_truncated = List.rev !truncated;
    (* construction = every base paid once + the per-signature deltas *)
    r_construction_ms = !base_ms +. !construction;
    r_solving_ms = !solving;
    r_vars = !r_vars;
    r_clauses = !r_clauses;
    r_solver = !r_solver;
    r_sig_deltas = List.rev !deltas;
    r_cache = (match cache with Some s -> Store.stats s | None -> []);
  })

(* --- bundle-axis sharding -------------------------------------------------- *)

(* The report for a bundle whose entire worker died: nothing was found,
   every signature is degraded, and the gap is recorded per signature
   exactly as a single-bundle run with an all-crashed pool would. *)
let crashed_bundle_report ~signatures bundle msg =
  {
    r_stats = Bundle.stats bundle;
    r_vulnerabilities = [];
    r_degraded =
      List.map
        (fun (sig_ : Signatures.t) ->
          {
            d_kind = sig_.Signatures.name;
            d_reason = "worker_crashed: " ^ msg;
          })
        signatures;
    r_truncated = [];
    r_construction_ms = 0.0;
    r_solving_ms = 0.0;
    r_vars = 0;
    r_clauses = 0;
    r_solver = Separ_sat.Solver.empty_stats;
    r_sig_deltas = [];
    r_cache = [];
  }

(* Analyze several independent bundles, sharding across *bundles* first
   and signatures second: with [jobs > 1], each bundle becomes one pool
   task — one fork set serves all of them, batched — and any parallelism
   left over ([jobs / #bundles], at least 1) runs *inside* each worker as
   the usual signature sharding.  ASE thus still shares one base
   encoding per config within every bundle, while a multi-bundle
   (store-scale) run saturates cores on the bundle axis, where the
   tasks are big enough to pay for transport.

   Results come back in bundle order and each bundle's report is
   byte-identical (stripped) to a [-j 1] run of that bundle: the pool
   merge is deterministic and minimization canonical.  A worker dying
   takes down only the bundles of its in-flight batch, each of which
   degrades to a report with every signature marked [worker_crashed]. *)
let analyze_many ?(signatures = Signatures.all ())
    ?(limit_per_sig = Solve.default_enum_limit) ?(jobs = 1) ?budget ?cache
    (bundles : Bundle.t list) : report list =
  let analyze_one ~jobs bundle =
    analyze ~signatures ~limit_per_sig ~jobs ?budget ?cache bundle
  in
  let n_bundles = List.length bundles in
  if jobs <= 1 || n_bundles <= 1 then
    List.map (analyze_one ~jobs) bundles
  else begin
    let inner_jobs = max 1 (jobs / n_bundles) in
    let results =
      Pool.run ~jobs
        (List.map (fun bundle () -> analyze_one ~jobs:inner_jobs bundle)
           bundles)
    in
    List.map2
      (fun bundle result ->
        match result with
        | Pool.Done report -> report
        | Pool.Failed msg ->
            crashed_bundle_report ~signatures bundle msg)
      bundles results
  end

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
