(** Minimal-model search and model enumeration over a designated set of
    variables — the role Aluminum plays for SEPAR: scenarios that are
    minimal in the tuples they include yield the most specific policies. *)

(** Raised when re-establishing a just-satisfiable model fails — the
    payload is the unexpected solver answer.  Indicates solver-state
    corruption; reachable in principle now that budgeted solves exist,
    hence a typed error instead of an assertion. *)
exception Reestablish_failed of Solver.result

(** Given that [solve] just returned [Sat], find the lexicographically
    least model of the clause set (under [extra]) w.r.t. the [soft]
    order with false preferred — also an inclusion-minimal model.
    Returns its true-set (in [soft] order); the solver is left with that
    model established.

    The answer is {e canonical}: it depends only on the constraints,
    [extra], and the [soft] order, never on solver search state — two
    solvers with logically equivalent constraint sets return the same
    model.  No activation literal is consumed; all candidates are
    expressed through assumptions.

    [budget] bounds the whole search; on exhaustion the remaining
    variables keep the values of the best model found (degrading to a
    coarser, possibly non-minimal and non-canonical, model).

    @raise Reestablish_failed if the minimum cannot be re-established
    (solver-state corruption). *)
val minimize_lex :
  ?extra:int list -> ?budget:Solver.budget -> Solver.t -> soft:int list ->
  int list

(** Permanently exclude every model whose true [soft] set is a superset
    of [trues]. *)
val block_superset : Solver.t -> trues:int list -> unit

(** Enumerate up to [limit] minimal models (as true-sets of [soft]), each
    found by {!minimize_lex}; successive models are never supersets of
    earlier ones. *)
val enumerate_minimal :
  ?limit:int -> Solver.t -> soft:int list -> int list list
