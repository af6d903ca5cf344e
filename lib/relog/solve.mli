(** Orchestration of the relational-logic engine: a problem is a set of
    bounds plus constraint formulas; solving translates to CNF, runs the
    CDCL solver and decodes satisfying assignments into instances.
    Minimal-scenario generation and superset-blocking enumeration
    reproduce Aluminum's behaviour.

    Sessions come in two flavours with identical observable behaviour:
    {!prepare} translates into a fresh solver and owns all of it, while
    {!prepare_base} + {!attach} share one solver and translation across
    several delta sessions (SEPAR's incremental ASE path: the bundle encoding is paid
    once, signature formulas ride on activation-literal assumptions, and
    CDCL learning persists).  Minimization is canonical — the answer
    depends only on the constraints, never on solver search state — so
    both flavours decode the same instances in the same order. *)

type problem = {
  bounds : Bounds.t;
  constraints : Ast.formula list;
}

type stats = {
  translation_ms : float;  (** formula -> CNF time (Table II "construction") *)
  solving_ms : float;      (** cumulative SAT search time *)
  n_vars : int;
  n_clauses : int;
  n_gates : int;
  delta_vars : int;
      (** variables this session added on top of what its solver already
          held (for a {!prepare} session: all of them) *)
  delta_clauses : int;     (** likewise, problem clauses *)
  delta_gates : int;       (** likewise, circuit gates *)
  cache_hits : int;        (** expression-cache hits during translation *)
  cache_misses : int;
  hc_hits : int;           (** circuit hash-cons hits during translation *)
  hc_misses : int;
  reused_clauses : int;
      (** clauses already in the solver when this session began (0 for
          {!prepare} sessions) *)
  reused_learnts : int;
      (** learnt clauses carried over from earlier sessions on the same
          solver *)
}

(** All zeros: the accounting of a solve that did not run (ASE's
    verdicts replayed from the persistent cache). *)
val empty_stats : stats

(** A prepared problem: translation done, solver loaded. *)
type session

(** The enumeration cap shared by {!enumerate}, ASE's per-signature
    loop and the CLI's [--limit] default. *)
val default_enum_limit : int

(** Translate the problem into a fresh solver session: the from-scratch
    reference that tests compare the {!prepare_base}/{!attach} path
    against.  [budget], if given, bounds the whole session: conflicts
    and wall-clock time are metered across all subsequent solves
    (minimization included), and once exhausted {!next} answers
    {!Unknown}. *)
val prepare : ?budget:Separ_sat.Solver.budget -> problem -> session

(** What remains of the session budget right now (fields of an
    unbudgeted session stay [None]).  On a shared base solver the meter
    starts at {!attach} time: earlier sessions' work is not charged. *)
val remaining_budget : session -> Separ_sat.Solver.budget

(** A bundle-common encoding shared by several delta sessions: one
    solver and one translation, built once from the common bounds and
    constraints. *)
type base

(** [prepare_base ~rels problem] translates the bundle-common problem
    once, allocating exactly the relations [rels] (all bounded in
    [problem.bounds]).  Relations bounded into the same [Bounds.t] but
    not listed — a signature's witnesses, bounded before the base is
    built — are left to the {!attach} that brings them.  Per-signature
    deltas are then layered on with {!attach}. *)
val prepare_base : rels:Relation.t list -> problem -> base

(** The base's solver (for aggregate statistics). *)
val base_solver : base -> Separ_sat.Solver.t

(** Statistics of the base's solver. *)
val base_stats : base -> Separ_sat.Solver.stats_record

(** Time spent translating the base problem (Table II "construction"). *)
val base_translation_ms : base -> float

(** [attach base ~rels ~constraints] layers one signature's delta on the
    base: [rels] are the relations the caller has bounded into the
    base's [Bounds.t] since the base (or the previous attach) was built
    — typically the signature's witness relations — and [constraints]
    are the delta formulas.  They are asserted under a fresh activation
    literal and every solve of the resulting session assumes it, so the
    delta (and any blocking clauses) holds for this session only, while
    Tseitin definitions and learnt clauses persist for later attaches.

    [budget] bounds this delta session the way {!prepare}'s does,
    metered from the attach.

    At most one attached session per base may be live; call {!detach}
    before the next attach. *)
val attach :
  ?budget:Separ_sat.Solver.budget ->
  base -> rels:Relation.t list -> constraints:Ast.formula list -> session

(** Retire an attached session's activation literal: its delta
    constraints and blocking clauses are permanently satisfied, leaving
    the base (plus learnt clauses) for the next {!attach}.  No-op on
    {!prepare} sessions. *)
val detach : session -> unit

type outcome = Unsat | Sat of Instance.t | Unknown

(** Find the next satisfying instance; with [minimal] (default) the free
    tuples are shrunk to the canonical (lexicographically least, hence
    inclusion-minimal) set first.  [Unknown] means the session budget
    ran out before the search decided the instance; minimization
    degrades to a coarser instance before the session gives up. *)
val next : ?minimal:bool -> session -> outcome

(** Exclude all extensions of the current instance's free choices.  On
    an attached session the exclusion is guarded and dies with it. *)
val block : session -> unit

(** Exclude future instances repeating the current valuation of the given
    relations' free tuples (coarser than {!block}).  Guarded likewise. *)
val block_on : session -> Relation.t list -> unit

(** One-shot: prepare and solve. *)
val solve :
  ?minimal:bool -> ?budget:Separ_sat.Solver.budget -> problem ->
  outcome * session

(** Enumerate up to [limit] distinct (minimal) instances.  The boolean is
    [true] iff enumeration was cut off at [limit] (more instances may
    exist), [false] when the search space was exhausted or a budget ran
    out first — reports can tell "complete" from "truncated". *)
val enumerate :
  ?limit:int -> ?minimal:bool -> ?budget:Separ_sat.Solver.budget -> problem ->
  Instance.t list * bool * session

(** Statistics of the session so far.  Variable/clause counts are
    refreshed as enumeration and minimization grow the formula, not
    frozen at {!prepare} time. *)
val stats : session -> stats

(** Re-check an instance against the constraints with the independent
    ground evaluator (a soundness self-test). *)
val verify : problem -> Instance.t -> bool
