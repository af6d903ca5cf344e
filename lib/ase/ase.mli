(** ASE: the Analysis and Synthesis Engine.  Builds the relational
    problem for each registered vulnerability signature over a bundle of
    extracted app models, asks the solver for minimal satisfying
    instances, and decodes each into an attack scenario.  Enumeration
    yields one scenario per distinct witness valuation.

    Signatures are independent, so {!analyze_many} (and {!analyze}, its
    one-bundle case) partitions them across a fork-based worker pool
    ([jobs]); per-signature solve budgets and
    worker-crash isolation degrade a pathological signature to a
    recorded {!degraded} entry instead of hanging or aborting the
    analysis. *)

open Separ_ame
open Separ_specs

type vulnerability = {
  v_kind : string;                (** signature name *)
  v_scenario : Scenario.t;
  v_components : string list;     (** victim components involved *)
}

(** A signature whose analysis did not complete: its solve budget ran
    out, or its worker process died.  Scenarios found before the
    degradation are still reported. *)
type degraded = {
  d_kind : string;    (** signature name *)
  d_reason : string;  (** ["budget_exhausted"] or ["worker_crashed: ..."] *)
}

type sig_outcome = Complete | Budget_exhausted

(** Everything one signature's run produces (marshal-safe, so the worker
    pool can ship it across the process boundary). *)
type sig_result = {
  sr_scenarios : Scenario.t list;
  sr_truncated : bool;  (** enumeration cut off at the limit *)
  sr_outcome : sig_outcome;
  sr_stats : Separ_relog.Solve.stats;
}

type report = {
  r_stats : Bundle.stats;
  r_vulnerabilities : vulnerability list;
  r_degraded : degraded list;  (** in signature order *)
  r_truncated : string list;
      (** signatures whose enumeration hit the per-signature limit *)
  r_construction_ms : float;  (** translation to CNF (Table II) *)
  r_solving_ms : float;       (** SAT search (Table II) *)
  r_vars : int;      (** [r_solver.s_vars] *)
  r_clauses : int;   (** [r_solver.s_clauses] *)
  r_solver : Separ_sat.Solver.stats_record;
      (** CDCL counters (conflicts, learnt-db reductions, minimized
          literals, ...) aggregated over the shared per-config solvers,
          not per-signature sums (which would double-count the base). *)
  r_sig_deltas : (string * Separ_relog.Solve.stats) list;
      (** per signature name, in signature order: the accounting of its
          delta session, whose [delta_*] fields are what it added on top
          of the shared base its solver already held
          ({!Separ_relog.Solve.empty_stats} for a verdict replayed from
          the persistent cache) *)
  r_cache : (string * int) list;
      (** persistent-cache counters (hits, misses, stores, evictions,
          corrupt entries, swept tmp files) of the store handle after the
          whole run — lookups made in forked workers included — sorted
          by name; [[]] when no cache was used *)
}

(** The device components implicated in a scenario. *)
val victim_components : Bundle.t -> Scenario.t -> string list

(** Run one signature from scratch: fresh encoding, fresh solver
    ({!Separ_relog.Solve.prepare}).  {!analyze} never dispatches this;
    it is the reference the tests compare the shared-base path against.
    [limit] caps enumeration (default
    {!Separ_relog.Solve.default_enum_limit}); [budget] bounds the
    signature's whole solver session — on exhaustion the scenarios found
    so far are kept and the result is marked [Budget_exhausted]. *)
val run_signature :
  ?limit:int ->
  ?budget:Separ_sat.Solver.budget ->
  Bundle.t ->
  Signatures.t ->
  sig_result

(** [analyze b] is [analyze_many [b]]: all (or the given) signatures
    over one bundle, cut into [jobs] signature shards. *)
val analyze :
  ?signatures:Signatures.t list ->
  ?limit_per_sig:int ->
  ?jobs:int ->
  ?budget:Separ_sat.Solver.budget ->
  ?cache:Separ_cache.Store.t ->
  Bundle.t ->
  report

(** Run all (or the given) signatures over each bundle, after resolving
    passive-intent targets (Algorithm 1) — ASE's only dispatch path.
    Each bundle's signatures are cut into [jobs / #bundles] (at least 1)
    contiguous shards, and every (bundle, shard) task goes to one
    {!Separ_exec.Pool.run} of width [jobs] (default 1: inline; above 1,
    forked workers, none of which forks a pool of its own).  Results —
    including worker trace spans and metrics — are merged back in task
    order, so reports come back in bundle order and are byte-identical
    (stripped) across [jobs] values and cache states.  [budget] applies
    per signature, not to the whole analysis.  A worker death degrades
    exactly the signatures of its in-flight tasks to [worker_crashed].

    The signatures of each encoding config within a shard share one
    bundle encoding and one solver: each signature rides on an
    activation-literal delta session, and learnt clauses persist.
    Minimization is canonical, so the scenarios are those
    {!run_signature} finds from scratch.

    With [cache], the shard keys each signature
    ({!signature_fingerprint}) on the encoding it would solve on: a hit
    replays the stored verdict, a miss solves and stores a complete
    outcome, and a config's solver base is translated only if one of its
    signatures misses.  Lookups made in forked workers are credited to
    [cache]'s counters. *)
val analyze_many :
  ?signatures:Signatures.t list ->
  ?limit_per_sig:int ->
  ?jobs:int ->
  ?budget:Separ_sat.Solver.budget ->
  ?cache:Separ_cache.Store.t ->
  Bundle.t list ->
  report list

(** The persistent-cache key {!analyze_many} uses for one signature
    over one bundle, computed standalone by the same key function
    (passive targets resolved first): a digest of the encoded problem
    projected onto the signature's relation support, plus the
    encode/verdict versions, encoding config, signature name and
    enumeration [limit].  Two bundles that agree on the signature's
    support relations share the key — so a change touching only
    relations a signature never reads leaves its verdict cached. *)
val signature_fingerprint : ?limit:int -> Bundle.t -> Signatures.t -> string

(** Zero out every field describing {e how} the analysis ran (timings,
    solver sizes and counters, per-signature deltas, cache counters),
    keeping only what it found — for comparing analysis results
    across execution strategies. *)
val strip_performance : report -> report

(** Packages having at least one vulnerability of the given kind. *)
val vulnerable_apps : report -> Bundle.t -> string -> string list

val pp_report : Format.formatter -> report -> unit
