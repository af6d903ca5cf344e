(** A CDCL SAT solver: two-watched-literal propagation, first-UIP clause
    learning with learnt-clause minimization, VSIDS decision heuristic,
    activity-ordered learnt-database reduction, phase saving and Luby
    restarts.

    The interface uses DIMACS conventions: variables are positive integers
    allocated by {!new_var}; a literal is [+v] or [-v].  The solver is
    incremental: clauses may be added between {!solve} calls, and each
    call may carry assumptions. *)

type t

(** [Unknown] is only produced by budgeted {!solve} calls whose resource
    budget ran out before the search decided the instance. *)
type result = Sat | Unsat | Unknown

(** A resource budget for one {!solve} call.  [None] fields are
    unlimited.  A call whose budget is exhausted — including a budget
    that is already non-positive on entry — returns {!Unknown}; the
    solver stays usable and keeps what it learnt, so a later (bigger or
    unbudgeted) call resumes the search cheaper. *)
type budget = {
  b_max_conflicts : int option;  (** conflicts this call may spend *)
  b_max_time_ms : float option;  (** wall-clock milliseconds for this call *)
}

(** The unlimited budget: both fields [None]. *)
val no_budget : budget

(** A fresh, empty solver. *)
val create : unit -> t

(** Allocate a fresh variable; returns its (1-based) index. *)
val new_var : t -> int

(** Add a clause of DIMACS literals.  Unknown variables are allocated on
    demand.  Adding a clause backtracks to the root level and invalidates
    the current model; read model values before adding clauses. *)
val add_clause : t -> int list -> unit

(** [add_clause] on an array of DIMACS literals.  The solver takes
    ownership of the array (it is rewritten in place); callers on hot
    paths use this to skip the list round trip. *)
val add_clause_arr : t -> int array -> unit

(** Decide satisfiability of the clause set, optionally under
    [assumptions] (literals forced true for this call only) and under a
    resource [budget] (default: unlimited).  A budget-exhausted call
    returns {!Unknown} and invalidates the model. *)
val solve : ?assumptions:int list -> ?budget:budget -> t -> result

(** Model value of a variable.  Raises [Invalid_argument] unless the last
    operation on the solver was a {!solve} that returned {!Sat}: adding a
    clause or an Unsat solve invalidates the model.  Unconstrained
    variables read as [false]. *)
val value : t -> int -> bool

(** The full model, indexed by [var - 1].  Raises [Invalid_argument]
    unless the last operation was a {!solve} that returned {!Sat}. *)
val model : t -> bool array

(** The failed-assumption set of the most recent {!solve}: the subset of
    that call's assumption literals (in the order given, deduplicated)
    whose conjunction the solver refuted — an unsat core over the
    assumptions.  Empty unless the call returned {!Unsat} under
    assumptions, and empty when the clauses are unsatisfiable on their
    own (no assumption is to blame).  The set is not guaranteed minimal,
    but assuming it again yields {!Unsat} again. *)
val failed_assumptions : t -> int list

(** The session's activation variable for assumption-guarded temporary
    clauses, allocating one if none is live.  Used by the delta sessions
    of [Solve.attach]; at most one activation variable is live at a time. *)
val activation_var : t -> int

(** Retire the live activation variable, if any: adds the unit clause
    [-act] (permanently satisfying every clause it guards, and
    invalidating the current model).  The next {!activation_var} call
    allocates a fresh variable. *)
val retire_activation : t -> unit

(** [(live, retired)] activation-variable counts: [live] is 0 or 1. *)
val activation_counts : t -> int * int

(** Set the initial learnt-database capacity (before growth); primarily
    for tests and benchmarks.  A tiny limit forces frequent reductions, a
    huge one disables them.  Must be called before the first {!solve} to
    override the default of [max 100 (n_clauses / 3)]. *)
val set_learnt_limit : t -> int -> unit

val n_vars : t -> int
val n_clauses : t -> int
val n_conflicts : t -> int

(** Structured solver statistics. *)
type stats_record = {
  s_vars : int;
  s_clauses : int;           (** problem clauses *)
  s_learnts : int;           (** learnt clauses currently in the database *)
  s_peak_learnts : int;      (** learnt-database high-water mark *)
  s_conflicts : int;
  s_decisions : int;
  s_propagations : int;
  s_restarts : int;
  s_db_reductions : int;     (** times {e reduce_db} fired *)
  s_learnts_deleted : int;   (** learnt clauses deleted by reductions *)
  s_lits_minimized : int;    (** literals removed by learnt minimization *)
  s_act_live : int;          (** live activation variables (0 or 1) *)
  s_act_retired : int;       (** retired activation variables *)
}

val stats_record : t -> stats_record

(** All-zero record, the unit of {!sum_stats}. *)
val empty_stats : stats_record

(** Aggregate two records: counters add, high-water marks take the max. *)
val sum_stats : stats_record -> stats_record -> stats_record
