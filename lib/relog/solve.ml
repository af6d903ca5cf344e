(* Orchestration: problem = universe + bounds + constraints.  Translation
   produces CNF; the CDCL solver searches; satisfying assignments are
   decoded into instances.  Minimal-scenario generation (the role of
   Aluminum in the paper) shrinks the set of free tuples before decoding,
   and enumeration blocks supersets of already-seen scenarios.

   Two ways to build a session, both through one constructor
   ([open_session]) that accounts for what the session added on top of a
   snapshot of its solver taken before its translation ran:

   - [prepare]: a fresh base over every bounded relation, opened as one
     unguarded session whose snapshot is all zeros — the from-scratch
     path, used by the one-shot [solve]/[enumerate] and kept as the
     reference the tests compare ASE's shared path against.
   - [prepare_base] + [attach]: one shared solver/translation per bundle
     (the "base"), with each signature's delta formulas asserted under an
     activation literal and solved as an assumption, so the base encoding
     is paid once and learnt clauses persist across signatures.  This is
     how ASE solves every signature.

   Both paths produce identical instances: minimization is the canonical
   lexicographic search of [Models.minimize_lex], whose answer depends
   only on the constraint set and the soft-variable order — never on
   solver search state — so a shared, learnt-clause-laden base solver
   and a fresh one decode the same scenarios in the same order. *)

type problem = {
  bounds : Bounds.t;
  constraints : Ast.formula list;
}

type stats = {
  translation_ms : float;
  solving_ms : float;
  n_vars : int;
  n_clauses : int;
  n_gates : int;
  (* what this session added on top of what its solver already held;
     for a [prepare] session the deltas are the full counts *)
  delta_vars : int;
  delta_clauses : int;
  delta_gates : int;
  (* sharing during this session's translation *)
  cache_hits : int;   (* translate expression-cache *)
  cache_misses : int;
  hc_hits : int;      (* circuit hash-consing *)
  hc_misses : int;
  (* carried over from earlier sessions on the same solver *)
  reused_clauses : int;
  reused_learnts : int;
}

let empty_stats =
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
  }

type session = {
  problem : problem;
  translation : Translate.t;
  solver : Separ_sat.Solver.t;
  soft : int list; (* free tuple variables, for minimization/blocking *)
  act : int option; (* activation literal guarding this session's delta *)
  decode_rels : Relation.t list; (* relations this session decodes *)
  budget : Separ_sat.Solver.budget; (* for the whole session *)
  conflicts0 : int; (* solver conflicts when the session began *)
  started : float; (* session epoch, for the wall-clock budget *)
  mutable stats : stats;
}

(* The enumeration cap shared by [enumerate], ASE's per-signature loop
   and the CLI's [--limit] default — one constant, not three copies. *)
let default_enum_limit = 16

(* What is left of the session budget right now: the conflict allowance
   shrinks with every conflict the session's solver has spent since the
   session began (main solves and minimization alike; on a shared base
   solver, earlier sessions' conflicts don't count), the time allowance
   with the clock. *)
let remaining_budget session =
  {
    Separ_sat.Solver.b_max_conflicts =
      Option.map
        (fun c ->
          c - (Separ_sat.Solver.n_conflicts session.solver
               - session.conflicts0))
        session.budget.Separ_sat.Solver.b_max_conflicts;
    b_max_time_ms =
      Option.map
        (fun ms -> ms -. ((Unix.gettimeofday () -. session.started) *. 1000.0))
        session.budget.Separ_sat.Solver.b_max_time_ms;
  }

(* The assumptions every solve of this session carries: the activation
   literal of an attached session, nothing for a from-scratch one. *)
let session_assumptions session =
  match session.act with Some a -> [ a ] | None -> []

module Trace = Separ_obs.Trace
module Metrics = Separ_obs.Metrics

(* Telemetry handles (lookup-once; see lib/obs/metrics.ml). *)
let g_gates = Metrics.gauge "relog.circuit_gates"
let g_cnf_vars = Metrics.gauge "relog.cnf_vars"
let g_cnf_clauses = Metrics.gauge "relog.cnf_clauses"
let c_translations = Metrics.counter "relog.translations"
let c_attaches = Metrics.counter "relog.attaches"
let c_hc_hits = Metrics.counter "relog.hashcons_hits"
let c_hc_misses = Metrics.counter "relog.hashcons_misses"
let c_cache_hits = Metrics.counter "relog.translate_cache_hits"
let c_cache_misses = Metrics.counter "relog.translate_cache_misses"

(* Formula sizes after a translation phase, and the sharing it saw. *)
let publish st =
  Metrics.set g_gates (float_of_int st.n_gates);
  Metrics.set g_cnf_vars (float_of_int st.n_vars);
  Metrics.set g_cnf_clauses (float_of_int st.n_clauses);
  if Metrics.is_enabled () then begin
    Metrics.add c_hc_hits st.hc_hits;
    Metrics.add c_hc_misses st.hc_misses;
    Metrics.add c_cache_hits st.cache_hits;
    Metrics.add c_cache_misses st.cache_misses
  end

(* Deterministic soft-variable order: relations in bound (id) order, each
   relation's free tuples in tuple order.  Both session flavours build
   their soft list this way, so position [i] denotes the same
   (relation, tuple) choice in either — the invariant the canonical
   minimization's cross-path determinism rests on. *)
let soft_of_rels translation rels =
  List.concat_map (Translate.soft_vars_of translation) rels

(* --- sessions ---------------------------------------------------------------- *)

(* One solver + translation, holding the bounds and constraints common to
   every session opened on it.  For ASE that is one bundle's encoding,
   and signatures [attach] their delta formulas under an activation
   literal.  The base is built over the relations [rels] the caller
   names, not over whatever [Bounds.t] holds when it is built: callers
   grow the shared bounds with per-signature witness relations, possibly
   before the base is built, and those belong to attaches. *)
type base = {
  b_problem : problem;
  b_translation : Translate.t;
  b_solver : Separ_sat.Solver.t;
  b_rels : Relation.t list; (* relations bounded at base-build time *)
  b_soft : int list; (* their free tuple variables, in decode order *)
  b_translation_ms : float;
}

(* What the base holds right now, as a [stats] record: formula sizes and
   sharing counters as totals, and the clauses and learnt clauses in its
   solver as what a session opened now would reuse.  A fresh solver's
   snapshot is [empty_stats]. *)
let snapshot base =
  let translation = base.b_translation and solver = base.b_solver in
  let hc_hits, hc_misses =
    Circuit.hashcons_counts translation.Translate.circuit
  in
  let cache_hits, cache_misses = Translate.cache_counts translation in
  let n_clauses = Separ_sat.Solver.n_clauses solver in
  {
    empty_stats with
    n_vars = Separ_sat.Solver.n_vars solver;
    n_clauses;
    n_gates = Circuit.gate_count translation.Translate.circuit;
    cache_hits;
    cache_misses;
    hc_hits;
    hc_misses;
    reused_clauses = n_clauses;
    reused_learnts =
      (Separ_sat.Solver.stats_record solver).Separ_sat.Solver.s_learnts;
  }

(* Translation is traced in its three phases: bound-matrix allocation
   (one solver variable per free tuple of [rels]), formula -> circuit
   evaluation, and Tseitin encoding of the asserted gates into CNF. *)
let prepare_base ~rels problem =
  let solver = Separ_sat.Solver.create () in
  let translation, b_translation_ms =
    Trace.timed "relog.translate" (fun () ->
        let tr =
          Trace.with_span "relog.bounds" (fun () ->
              Translate.create ~rels problem.bounds solver)
        in
        let gates =
          Trace.with_span "relog.circuit" (fun () ->
              List.map (Translate.gate_of_formula tr) problem.constraints)
        in
        Trace.with_span "relog.tseitin" (fun () ->
            List.iter (Translate.assert_gate tr) gates);
        Trace.add_attr "gates"
          (Trace.Int (Circuit.gate_count tr.Translate.circuit));
        Trace.add_attr "cnf_vars"
          (Trace.Int (Separ_sat.Solver.n_vars solver));
        Trace.add_attr "cnf_clauses"
          (Trace.Int (Separ_sat.Solver.n_clauses solver));
        tr)
  in
  Metrics.incr c_translations;
  let base =
    {
      b_problem = problem;
      b_translation = translation;
      b_solver = solver;
      b_rels = rels;
      b_soft = soft_of_rels translation rels;
      b_translation_ms;
    }
  in
  (* from a fresh solver, the totals are what this translation saw *)
  publish (snapshot base);
  base

let base_solver base = base.b_solver
let base_stats base = Separ_sat.Solver.stats_record base.b_solver
let base_translation_ms base = base.b_translation_ms

(* The one session constructor: a session over [base] plus the delta
   relations [rels] and [constraints] just translated into it, guarded by
   [act] if any.  [before] is the base's {!snapshot} from before that
   translation ([empty_stats] for a fresh solver), so what the session
   added is the snapshot now minus [before], and what it reuses is
   [before]'s. *)
let open_session ~budget base ~before ~act ~rels ~constraints ~translation_ms
    =
  let now = snapshot base in
  {
    problem =
      {
        bounds = base.b_problem.bounds;
        constraints = base.b_problem.constraints @ constraints;
      };
    translation = base.b_translation;
    solver = base.b_solver;
    soft = base.b_soft @ soft_of_rels base.b_translation rels;
    act;
    decode_rels = base.b_rels @ rels;
    budget;
    conflicts0 = Separ_sat.Solver.n_conflicts base.b_solver;
    started = Unix.gettimeofday ();
    stats =
      {
        now with
        translation_ms;
        delta_vars = now.n_vars - before.n_vars;
        delta_clauses = now.n_clauses - before.n_clauses;
        delta_gates = now.n_gates - before.n_gates;
        cache_hits = now.cache_hits - before.cache_hits;
        cache_misses = now.cache_misses - before.cache_misses;
        hc_hits = now.hc_hits - before.hc_hits;
        hc_misses = now.hc_misses - before.hc_misses;
        reused_clauses = before.reused_clauses;
        reused_learnts = before.reused_learnts;
      };
  }

(* A fresh base over every bounded relation, opened as one unguarded
   session that owns all of it.  [budget], if given, bounds the *whole
   session*: conflicts and wall-clock time are metered across every
   subsequent solve (including minimization), and a solve past the
   budget answers [Unknown]. *)
let prepare ?(budget = Separ_sat.Solver.no_budget) problem =
  let base = prepare_base ~rels:(Bounds.relations problem.bounds) problem in
  open_session ~budget base ~before:empty_stats ~act:None ~rels:[]
    ~constraints:[] ~translation_ms:base.b_translation_ms

(* Attach one signature's delta to the base: [rels] are the relations
   the caller bounded into the base's [Bounds.t] since the last attach
   (the signature's witnesses), [constraints] its delta formulas.  The
   deltas are asserted under a fresh activation literal (the solver's
   recycled activation slot), so they hold only while this session's
   assumption is in force; Tseitin definitions stay unguarded and thus
   shared with later signatures.  [detach] retires the literal,
   permanently satisfying every guarded clause.

   At most one attached session per base may be live at a time (the
   solver has a single activation slot). *)
let attach ?(budget = Separ_sat.Solver.no_budget) base ~rels ~constraints =
  let solver = base.b_solver and translation = base.b_translation in
  let before = snapshot base in
  let act, translation_ms =
    Trace.timed "relog.attach" (fun () ->
        Trace.with_span "relog.bounds" (fun () ->
            List.iter
              (Translate.add_relation translation base.b_problem.bounds)
              rels);
        let act = Separ_sat.Solver.activation_var solver in
        let gates =
          Trace.with_span "relog.circuit" (fun () ->
              List.map (Translate.gate_of_formula translation) constraints)
        in
        Trace.with_span "relog.tseitin" (fun () ->
            List.iter
              (Translate.assert_gate_under translation ~guard:act)
              gates);
        act)
  in
  Metrics.incr c_attaches;
  let session =
    open_session ~budget base ~before ~act:(Some act) ~rels ~constraints
      ~translation_ms
  in
  publish session.stats;
  session

(* End an attached session: retiring the activation literal adds the
   unit clause [-act], permanently satisfying every clause the session
   asserted or blocked, so the next attach starts from a base
   constrained exactly as before (plus inert definitions and whatever
   the solver learnt).  No-op on [prepare] sessions. *)
let detach session =
  match session.act with
  | None -> ()
  | Some _ -> Separ_sat.Solver.retire_activation session.solver

let decode session =
  let bounds = session.problem.bounds in
  let bindings =
    List.map
      (fun rel ->
        (rel, Translate.relation_value session.translation rel bounds))
      session.decode_rels
  in
  Instance.make (Bounds.universe bounds) bindings

type outcome = Unsat | Sat of Instance.t | Unknown

(* Variable/clause counts drift as enumeration adds blocking clauses and
   minimization adds shrink clauses and activation variables; refresh the
   snapshot whenever the session mutates the solver so [stats] reports
   the live formula, not the one frozen at [prepare] time. *)
let refresh_counts session =
  session.stats <-
    {
      session.stats with
      n_vars = Separ_sat.Solver.n_vars session.solver;
      n_clauses = Separ_sat.Solver.n_clauses session.solver;
    }

(* Find the next satisfying instance.  With [minimal] (default), the
   instance is minimized over the free tuple variables first — with the
   canonical lexicographic minimization, so attached and from-scratch
   sessions over equivalent constraints decode identical instances.  A
   session budget that runs out (during either the search or the
   minimization) yields [Unknown]; minimization itself degrades to a
   coarser instance before the session does. *)
let next ?(minimal = true) session =
  let assumptions = session_assumptions session in
  let result, ms =
    Trace.timed "sat.solve" (fun () ->
        let r =
          match
            Separ_sat.Solver.solve ~assumptions
              ~budget:(remaining_budget session)
              session.solver
          with
          | Separ_sat.Solver.Unsat -> Unsat
          | Separ_sat.Solver.Unknown -> Unknown
          | Separ_sat.Solver.Sat ->
              if minimal then
                ignore
                  (Separ_sat.Models.minimize_lex ~extra:assumptions
                     ~budget:(remaining_budget session)
                     session.solver ~soft:session.soft);
              Sat (decode session)
        in
        Trace.add_attr "result"
          (Trace.Str
             (match r with
             | Sat _ -> "sat"
             | Unsat -> "unsat"
             | Unknown -> "unknown"));
        r)
  in
  session.stats <-
    { session.stats with solving_ms = session.stats.solving_ms +. ms };
  refresh_counts session;
  result

(* A blocking clause, guarded by the session's activation literal when
   there is one, so an attached session's exclusions die with it. *)
let add_block session trues =
  match session.act with
  | None -> Separ_sat.Models.block_superset session.solver ~trues
  | Some act ->
      Separ_sat.Solver.add_clause session.solver
        (-act :: List.map (fun v -> -v) trues)

(* Exclude all extensions of the current instance's free choices. *)
let block session =
  let trues =
    List.filter (Separ_sat.Solver.value session.solver) session.soft
  in
  add_block session trues;
  refresh_counts session

(* Exclude future instances that repeat the current valuation of the given
   relations' free tuples (coarser blocking: enumeration per distinct
   assignment of these relations, regardless of the rest). *)
let block_on session rels =
  let soft =
    List.concat_map (Translate.soft_vars_of session.translation) rels
  in
  let trues = List.filter (Separ_sat.Solver.value session.solver) soft in
  add_block session trues;
  refresh_counts session

(* One-shot solve. *)
let solve ?(minimal = true) ?budget problem =
  let session = prepare ?budget problem in
  (next ~minimal session, session)

(* Enumerate up to [limit] distinct (minimal) instances.  The returned
   flag is [true] iff enumeration stopped because it hit [limit] — i.e.
   the search space was cut off rather than exhausted (or abandoned on a
   budget-exhausted [Unknown]). *)
let enumerate ?(limit = default_enum_limit) ?(minimal = true) ?budget problem =
  let session = prepare ?budget problem in
  let rec go acc k =
    if k >= limit then (List.rev acc, true)
    else
      match next ~minimal session with
      | Unsat | Unknown -> (List.rev acc, false)
      | Sat inst ->
          block session;
          go (inst :: acc) (k + 1)
  in
  let instances, truncated = go [] 0 in
  (instances, truncated, session)

let stats session = session.stats

(* Sanity: check a decoded instance against the problem constraints with
   the independent ground evaluator. *)
let verify problem inst =
  List.for_all (Eval.check inst) problem.constraints
