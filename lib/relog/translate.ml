(* Translation of a bounded relational problem to a boolean circuit, in
   the style of Kodkod: each relation becomes a sparse matrix whose cells
   are constant-true (lower-bound tuples), constant-false (outside the
   upper bound) or fresh solver variables; expressions evaluate to
   matrices and formulas to gates. *)

type env = (string * int) list (* quantified variable -> atom *)

type t = {
  circuit : Circuit.t;
  solver : Separ_sat.Solver.t;
  encoder : Circuit.encoder;
  universe : Universe.t;
  n : int;
  mutable rel_matrices : Matrix.t Relation.Map.t;
  (* per relation: the (tuple, solver var) pairs that are free choices *)
  mutable rel_vars : (Tuple_set.tuple * int) list Relation.Map.t;
  (* expression -> matrix memoization, keyed on the expression and the
     atoms bound to its variables; see [expr] below *)
  expr_cache : (int list * Ast.expr, Matrix.t) Hashtbl.t;
  mutable tc_hits : int;
  mutable tc_misses : int;
}

(* Allocate the matrix and free-choice variables of one relation: cells
   in the lower bound are constant-true, remaining upper-bound cells get
   fresh solver variables in tuple order.  Both bounds are sorted and
   [lower] is within [upper], so one walk of [upper] with a cursor into
   the codes of [lower] tells them apart: an upper tuple is in [lower]
   iff its code is the one at the cursor. *)
let alloc_relation circuit solver ~n bounds rel =
  let lower, upper = Bounds.get bounds rel in
  let m = Matrix.create ~n ~arity:(Relation.arity rel) in
  let vars = ref []
  and lower = ref (List.map (Matrix.encode ~n) (Tuple_set.to_list lower)) in
  Tuple_set.iter
    (fun tup ->
      let code = Matrix.encode ~n tup in
      match !lower with
      | l :: rest when l = code ->
          lower := rest;
          Matrix.set m code (Circuit.tt circuit)
      | _ ->
          let v = Separ_sat.Solver.new_var solver in
          vars := (tup, v) :: !vars;
          Matrix.set m code (Circuit.lit circuit v))
    upper;
  (m, List.rev !vars)

(* [rels] are the relations to allocate now, all bounded in [bounds];
   relations bounded later join through [add_relation]. *)
let create ~rels bounds solver =
  let circuit = Circuit.create () in
  let universe = Bounds.universe bounds in
  let n = Universe.size universe in
  let rel_matrices = ref Relation.Map.empty in
  let rel_vars = ref Relation.Map.empty in
  List.iter
    (fun rel ->
      let m, vars = alloc_relation circuit solver ~n bounds rel in
      rel_matrices := Relation.Map.add rel m !rel_matrices;
      rel_vars := Relation.Map.add rel vars !rel_vars)
    rels;
  {
    circuit;
    solver;
    encoder = Circuit.encoder circuit solver;
    universe;
    n;
    rel_matrices = !rel_matrices;
    rel_vars = !rel_vars;
    expr_cache = Hashtbl.create 256;
    tc_hits = 0;
    tc_misses = 0;
  }

(* Extend an existing translation with a relation bounded after [create]
   (the incremental path adds per-signature witness relations to a shared
   base translation this way).  Allocates exactly what [create] would
   have: same matrix cells, fresh variables in the same tuple order. *)
let add_relation t bounds rel =
  if Relation.Map.mem rel t.rel_matrices then
    invalid_arg ("Translate.add_relation: duplicate " ^ Relation.name rel);
  let m, vars = alloc_relation t.circuit t.solver ~n:t.n bounds rel in
  t.rel_matrices <- Relation.Map.add rel m t.rel_matrices;
  t.rel_vars <- Relation.Map.add rel vars t.rel_vars

(* (hits, misses) of the expression->matrix cache since creation. *)
let cache_counts t = (t.tc_hits, t.tc_misses)

let lookup (env : env) v =
  match List.assoc_opt v env with
  | Some atom -> atom
  | None -> invalid_arg ("Translate.expr: unbound variable " ^ v)

(* The atoms bound to the variables of [e], in the order [e] mentions
   them. *)
let bound_atoms env e =
  let rec go seen acc = function
    | Ast.Var v ->
        if List.mem v seen then (seen, acc)
        else (v :: seen, lookup env v :: acc)
    | Ast.Rel _ | Ast.Univ | Ast.None_e | Ast.Iden -> (seen, acc)
    | Ast.Join (a, b)
    | Ast.Product (a, b)
    | Ast.Union (a, b)
    | Ast.Inter (a, b)
    | Ast.Diff (a, b) ->
        let seen, acc = go seen acc a in
        go seen acc b
    | Ast.Transpose a | Ast.Closure a | Ast.RClosure a -> go seen acc a
  in
  snd (go [] [] e)

let rec expr t (env : env) (e : Ast.expr) : Matrix.t =
  (* Matrices are immutable once built (operations always allocate), and
     hash-consing makes re-translation of equal expressions yield the
     same gates — so memoizing changes nothing but the cost.  An
     expression's value depends only on the atoms bound to the variables
     it mentions, so those, not the whole environment, key it: [T.R]
     under [all x: S | ...] is built once, not once per atom of [S]. *)
  match e with
  | Ast.Rel _ | Ast.Var _ | Ast.Univ | Ast.None_e | Ast.Iden ->
      expr_uncached t env e (* leaves: a lookup is cheaper than a hash *)
  | _ -> (
      let k = (bound_atoms env e, e) in
      match Hashtbl.find_opt t.expr_cache k with
      | Some m ->
          t.tc_hits <- t.tc_hits + 1;
          m
      | None ->
          t.tc_misses <- t.tc_misses + 1;
          let m = expr_uncached t env e in
          Hashtbl.add t.expr_cache k m;
          m)

and expr_uncached t (env : env) (e : Ast.expr) : Matrix.t =
  let c = t.circuit in
  match e with
  | Ast.Rel r -> (
      match Relation.Map.find_opt r t.rel_matrices with
      | Some m -> m
      | None ->
          invalid_arg ("Translate.expr: unbound relation " ^ Relation.name r))
  | Ast.Var v -> Matrix.atom c ~n:t.n (lookup env v)
  | Ast.Univ -> Matrix.univ c ~n:t.n
  | Ast.None_e -> Matrix.create ~n:t.n ~arity:1
  | Ast.Iden -> Matrix.iden c ~n:t.n
  | Ast.Join (a, b) -> Matrix.join c (expr t env a) (expr t env b)
  | Ast.Product (a, b) -> Matrix.product c (expr t env a) (expr t env b)
  | Ast.Union (a, b) -> Matrix.union c (expr t env a) (expr t env b)
  | Ast.Inter (a, b) -> Matrix.inter c (expr t env a) (expr t env b)
  | Ast.Diff (a, b) -> Matrix.diff c (expr t env a) (expr t env b)
  | Ast.Transpose a -> Matrix.transpose (expr t env a)
  | Ast.Closure a -> Matrix.closure c (expr t env a)
  | Ast.RClosure a ->
      Matrix.union c (Matrix.closure c (expr t env a)) (Matrix.iden c ~n:t.n)

(* The implications [a[t] => b[t]] over the cells of [a], onto [acc]:
   the conjuncts of [a in b]. *)
let subset_terms t a b acc =
  let c = t.circuit in
  Matrix.fold
    (fun code g acc ->
      Circuit.implies c g (Matrix.find_or b ~default:(Circuit.ff c) code)
      :: acc)
    a acc

(* [lone] and [one] over the cells, with the linear ladder of Kodkod
   (Torlak and Jackson, TACAS 2007): folding left to right with the
   prefix disjunction [p] of the cells seen so far, a cell [x] conflicts
   when [x /\ p]; at most one cell holds iff no cell conflicts.  Returns
   that gate and the final prefix, which is [some] of the cells. *)
let ladder t cells =
  let c = t.circuit in
  let conflicts, p =
    List.fold_left
      (fun (conflicts, p) x ->
        (Circuit.and_ c x p :: conflicts, Circuit.or_ c p x))
      ([], Circuit.ff c) cells
  in
  (Circuit.not_ c (Circuit.big_or c conflicts), p)

(* The operands of a nest of [And_f] (or of [Or_f]), left to right. *)
let rec conjuncts f acc =
  match f with Ast.And_f (a, b) -> conjuncts a (conjuncts b acc) | f -> f :: acc

let rec disjuncts f acc =
  match f with Ast.Or_f (a, b) -> disjuncts a (disjuncts b acc) | f -> f :: acc

let rec formula t (env : env) (f : Ast.formula) : Circuit.gate =
  let c = t.circuit in
  match f with
  | Ast.True_f -> Circuit.tt c
  | Ast.False_f -> Circuit.ff c
  | Ast.Subset (a, b) ->
      Circuit.big_and c (subset_terms t (expr t env a) (expr t env b) [])
  | Ast.Eq (a, b) ->
      let ma = expr t env a and mb = expr t env b in
      Circuit.big_and c (subset_terms t ma mb (subset_terms t mb ma []))
  | Ast.Mult (m, e) -> (
      let cells = Matrix.fold (fun _ g acc -> g :: acc) (expr t env e) [] in
      match m with
      | Ast.Mno -> Circuit.not_ c (Circuit.big_or c cells)
      | Ast.Msome -> Circuit.big_or c cells
      | Ast.Mlone -> fst (ladder t cells)
      | Ast.Mone ->
          let lone, some = ladder t cells in
          Circuit.and_ c lone some)
  | Ast.Not_f f -> Circuit.not_ c (formula t env f)
  | Ast.And_f _ ->
      Circuit.big_and c (List.map (formula t env) (conjuncts f []))
  | Ast.Or_f _ -> Circuit.big_or c (List.map (formula t env) (disjuncts f []))
  | Ast.Implies (a, b) ->
      Circuit.implies c (formula t env a) (formula t env b)
  | Ast.Iff (a, b) -> Circuit.iff c (formula t env a) (formula t env b)
  | Ast.All (v, dom, body) ->
      Circuit.big_and c
        (Matrix.fold
           (fun atom g acc ->
             Circuit.implies c g (formula t ((v, atom) :: env) body) :: acc)
           (expr t env dom) [])
  | Ast.Exists (v, dom, body) ->
      Circuit.big_or c
        (Matrix.fold
           (fun atom g acc ->
             Circuit.and_ c g (formula t ((v, atom) :: env) body) :: acc)
           (expr t env dom) [])

(* The two halves of constraint assertion, split so the caller can
   trace circuit construction and Tseitin encoding separately. *)
let gate_of_formula t f = formula t [] f
let assert_gate t g = Circuit.assert_gate t.encoder g

(* Assert a gate that holds only while the [guard] literal is assumed;
   see {!Circuit.assert_gate_under}. *)
let assert_gate_under t ~guard g = Circuit.assert_gate_under t.encoder ~guard g

(* Assert a formula as a problem constraint. *)
let assert_formula t f = assert_gate t (gate_of_formula t f)

(* All free tuple variables, for minimization / enumeration. *)
let all_soft_vars t =
  Relation.Map.fold
    (fun _ vars acc -> List.rev_append (List.map snd vars) acc)
    t.rel_vars []

let soft_vars_of t rel =
  match Relation.Map.find_opt rel t.rel_vars with
  | Some vars -> List.map snd vars
  | None -> []

(* Read back the value of a relation from the solver's current model. *)
let relation_value t rel bounds =
  let lower, _upper = Bounds.get bounds rel in
  let free = Relation.Map.find rel t.rel_vars in
  let chosen =
    List.filter_map
      (fun (tup, v) ->
        if Separ_sat.Solver.value t.solver v then Some tup else None)
      free
  in
  Tuple_set.union lower
    (Tuple_set.of_list (Relation.arity rel) chosen)
