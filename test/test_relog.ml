(* Tests for the relational-logic engine: tuple-set algebra, translation
   to SAT, quantifier and multiplicity semantics, minimal instances, and
   a differential property — solver-found instances always re-check under
   the independent ground evaluator, and satisfiability agrees with
   brute-force enumeration on small bounds. *)

open Separ_relog

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ts arity l = Tuple_set.of_list arity (List.map Array.of_list l)

(* --- tuple-set algebra ---------------------------------------------------- *)

let test_ts_ops () =
  let a = ts 1 [ [ 0 ]; [ 1 ] ] and b = ts 1 [ [ 1 ]; [ 2 ] ] in
  check_int "union" 3 (Tuple_set.size (Tuple_set.union a b));
  check_int "inter" 1 (Tuple_set.size (Tuple_set.inter a b));
  check_int "diff" 1 (Tuple_set.size (Tuple_set.diff a b));
  check "subset" true (Tuple_set.subset (ts 1 [ [ 1 ] ]) a);
  check "not subset" false (Tuple_set.subset b a)

let test_ts_union_merge () =
  (* The linear-merge union must preserve of_list's semantics exactly:
     sorted lexicographic tuple order, duplicates across (and within)
     the operands collapsed, arity mismatches rejected. *)
  let a = ts 2 [ [ 0; 1 ]; [ 2; 0 ]; [ 0; 0 ] ] in
  let b = ts 2 [ [ 0; 1 ]; [ 1; 9 ]; [ 2; 0 ]; [ 0; 2 ] ] in
  let u = Tuple_set.union a b in
  let expected =
    [ [| 0; 0 |]; [| 0; 1 |]; [| 0; 2 |]; [| 1; 9 |]; [| 2; 0 |] ]
  in
  check "merged, deduplicated, in sorted order" true
    (Tuple_set.to_list u = expected);
  check "agrees with of_list on the concatenation" true
    (Tuple_set.equal u
       (Tuple_set.of_list 2 (Tuple_set.to_list a @ Tuple_set.to_list b)));
  check "commutes" true (Tuple_set.equal u (Tuple_set.union b a));
  check "union with empty is identity" true
    (Tuple_set.equal a (Tuple_set.union a (Tuple_set.empty 2))
    && Tuple_set.equal a (Tuple_set.union (Tuple_set.empty 2) a));
  check "idempotent" true (Tuple_set.equal a (Tuple_set.union a a));
  check "arity mismatch rejected" true
    (try
       ignore (Tuple_set.union a (ts 1 [ [ 0 ] ]));
       false
     with Invalid_argument _ -> true)

let test_ts_join () =
  let r = ts 2 [ [ 0; 1 ]; [ 1; 2 ] ] in
  let x = ts 1 [ [ 0 ] ] in
  let j = Tuple_set.join x r in
  check "x.r = {1}" true (Tuple_set.equal j (ts 1 [ [ 1 ] ]));
  let rr = Tuple_set.join r r in
  check "r.r = {(0,2)}" true (Tuple_set.equal rr (ts 2 [ [ 0; 2 ] ]))

let test_ts_product_transpose () =
  let a = ts 1 [ [ 0 ]; [ 1 ] ] and b = ts 1 [ [ 2 ] ] in
  let p = Tuple_set.product a b in
  check "product" true (Tuple_set.equal p (ts 2 [ [ 0; 2 ]; [ 1; 2 ] ]));
  check "transpose" true
    (Tuple_set.equal (Tuple_set.transpose p) (ts 2 [ [ 2; 0 ]; [ 2; 1 ] ]))

let test_ts_closure () =
  let r = ts 2 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ] in
  let c = Tuple_set.closure r in
  check_int "closure size" 6 (Tuple_set.size c);
  check "0 reaches 3" true (Tuple_set.mem [| 0; 3 |] c);
  check "3 reaches nothing" false (Tuple_set.mem [| 3; 0 |] c)

(* --- a fixed problem: the paper's Alloy warm-up --------------------------- *)

let paper_problem extra_constraints =
  let u = Universe.of_atoms [ "App0"; "App1"; "Cmp0"; "Cmp1" ] in
  let application = Relation.make "Application" 1 in
  let component = Relation.make "Component" 1 in
  let cmps = Relation.make "cmps" 2 in
  let b = Bounds.create u in
  Bounds.bound b application ~lower:(Tuple_set.empty 1)
    ~upper:(Bounds.tuples b [ [ "App0" ]; [ "App1" ] ]);
  Bounds.bound b component ~lower:(Tuple_set.empty 1)
    ~upper:(Bounds.tuples b [ [ "Cmp0" ]; [ "Cmp1" ] ]);
  Bounds.bound b cmps ~lower:(Tuple_set.empty 2)
    ~upper:
      (Bounds.tuples b
         [
           [ "App0"; "Cmp0" ]; [ "App0"; "Cmp1" ];
           [ "App1"; "Cmp0" ]; [ "App1"; "Cmp1" ];
         ]);
  let open Ast.Dsl in
  let facts =
    [
      rel cmps <: rel application --> rel component;
      all (rel component) (fun c -> one (c |. tilde (rel cmps)));
      some (rel component);
    ]
  in
  ( Solve.{ bounds = b; constraints = facts @ extra_constraints application component cmps },
    (application, component, cmps) )

let no_extra _ _ _ = []

let test_paper_example_sat () =
  let problem, _ = paper_problem no_extra in
  match Solve.solve problem with
  | Solve.Sat inst, _ ->
      check "instance verifies" true (Solve.verify problem inst)
  | (Solve.Unsat | Solve.Unknown), _ -> Alcotest.fail "expected sat"

let test_paper_example_minimal () =
  let problem, (application, component, cmps) = paper_problem no_extra in
  match Solve.solve problem with
  | Solve.Sat inst, _ ->
      (* Aluminum-style minimality: one component, its app, one pair *)
      check_int "one app" 1 (Tuple_set.size (Instance.value inst application));
      check_int "one component" 1 (Tuple_set.size (Instance.value inst component));
      check_int "one cmps pair" 1 (Tuple_set.size (Instance.value inst cmps))
  | (Solve.Unsat | Solve.Unknown), _ -> Alcotest.fail "expected sat"

let test_paper_example_unsat_no_apps () =
  let problem, _ =
    paper_problem (fun application _ _ -> [ Ast.Dsl.no (Ast.Rel application) ])
  in
  match Solve.solve problem with
  | Solve.Unsat, _ -> ()
  | (Solve.Sat _ | Solve.Unknown), _ -> Alcotest.fail "expected unsat"

let test_paper_example_enumeration () =
  let problem, _ = paper_problem no_extra in
  let instances, truncated, _ = Solve.enumerate ~limit:50 problem in
  (* minimal instances: component x app choices = 4 *)
  check_int "four minimal instances" 4 (List.length instances);
  check "exhausted, not truncated" false truncated;
  List.iter
    (fun inst -> check "each verifies" true (Solve.verify problem inst))
    instances

(* --- multiplicity and quantifier semantics --------------------------------- *)

let small_problem ?(n = 3) f =
  let atoms = List.init n (fun i -> "a" ^ string_of_int i) in
  let u = Universe.of_atoms atoms in
  let s = Relation.make "S" 1 in
  let b = Bounds.create u in
  Bounds.bound b s ~lower:(Tuple_set.empty 1)
    ~upper:(Tuple_set.univ n);
  (Solve.{ bounds = b; constraints = f s }, s)

let test_mult_no () =
  let problem, s = small_problem (fun s -> [ Ast.Dsl.no (Ast.Rel s) ]) in
  match Solve.solve problem with
  | Solve.Sat inst, _ ->
      check_int "no S: empty" 0 (Tuple_set.size (Instance.value inst s))
  | _ -> Alcotest.fail "expected sat"

let test_mult_one () =
  let problem, s = small_problem (fun s -> [ Ast.Dsl.one (Ast.Rel s) ]) in
  match Solve.solve problem with
  | Solve.Sat inst, _ ->
      check_int "one S: singleton" 1 (Tuple_set.size (Instance.value inst s))
  | _ -> Alcotest.fail "expected sat"

let test_mult_lone_allows_empty () =
  let problem, _ =
    small_problem (fun s ->
        [ Ast.Dsl.lone (Ast.Rel s); Ast.Dsl.no (Ast.Rel s) ])
  in
  match Solve.solve problem with
  | Solve.Sat _, _ -> ()
  | _ -> Alcotest.fail "lone must allow empty"

let test_quantifier_all () =
  (* all x in univ: x in S  ==> S = univ *)
  let problem, s =
    small_problem (fun s ->
        [ Ast.Dsl.(all Ast.Univ (fun x -> x <: Ast.Rel s)) ])
  in
  match Solve.solve problem with
  | Solve.Sat inst, _ ->
      check_int "S is the universe" 3 (Tuple_set.size (Instance.value inst s))
  | _ -> Alcotest.fail "expected sat"

let test_quantifier_exists_witness () =
  let problem, _ =
    small_problem (fun s ->
        [
          Ast.Dsl.(exists Ast.Univ (fun x -> x <: Ast.Rel s));
          Ast.Dsl.no (Ast.Rel s);
        ])
  in
  match Solve.solve problem with
  | Solve.Unsat, _ -> ()
  | _ -> Alcotest.fail "exists + no is unsat"

(* --- differential: random problems vs ground evaluation ------------------- *)

(* Random formula generator over one unary and one binary relation. *)
let random_formula rand s r =
  let open Ast in
  let rec expr1 depth =
    if depth = 0 then if Random.State.bool rand then Rel s else Univ
    else
      match Random.State.int rand 5 with
      | 0 -> Union (expr1 (depth - 1), expr1 (depth - 1))
      | 1 -> Inter (expr1 (depth - 1), expr1 (depth - 1))
      | 2 -> Diff (expr1 (depth - 1), expr1 (depth - 1))
      | 3 -> Join (expr1 (depth - 1), expr2 (depth - 1))
      | _ -> Rel s
  and expr2 depth =
    if depth = 0 then Rel r
    else
      match Random.State.int rand 4 with
      | 0 -> Transpose (expr2 (depth - 1))
      | 1 -> Closure (expr2 (depth - 1))
      | 2 -> Union (expr2 (depth - 1), expr2 (depth - 1))
      | _ -> Rel r
  in
  let rec formula depth =
    if depth = 0 then
      match Random.State.int rand 4 with
      | 0 -> Subset (expr1 1, expr1 1)
      | 1 -> Mult (Msome, expr1 1)
      | 2 -> Mult (Mno, expr1 1)
      | _ -> Mult (Mlone, expr1 1)
    else
      match Random.State.int rand 6 with
      | 0 -> And_f (formula (depth - 1), formula (depth - 1))
      | 1 -> Or_f (formula (depth - 1), formula (depth - 1))
      | 2 -> Not_f (formula (depth - 1))
      | 3 -> Dsl.all (Rel s) (fun x -> Subset (Join (x, Rel r), Rel s))
      | 4 -> Dsl.exists Univ (fun x -> Subset (x, expr1 1))
      | _ -> formula 0
  in
  formula 2

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
      let rs = subsets rest in
      rs @ List.map (fun set -> x :: set) rs

(* Enumerate all instances by brute force for tiny bounds. *)
let brute_force_sat n s r formula =
  let u = Universe.of_atoms (List.init n (fun i -> "b" ^ string_of_int i)) in
  let unary =
    List.init n (fun i -> [| i |])
  in
  let binary =
    List.concat_map (fun i -> List.init n (fun j -> [| i; j |]))
      (List.init n (fun i -> i))
  in
  List.exists
    (fun s_set ->
      List.exists
        (fun r_set ->
          let inst =
            Instance.make u
              [
                (s, Tuple_set.of_list 1 s_set); (r, Tuple_set.of_list 2 r_set);
              ]
          in
          Eval.check inst formula)
        (subsets binary))
    (subsets unary)

let test_differential_vs_eval () =
  let rand = Random.State.make [| 23 |] in
  for _ = 1 to 60 do
    let n = 2 in
    let s = Relation.make "S" 1 in
    let r = Relation.make "R" 2 in
    let u = Universe.of_atoms (List.init n (fun i -> "b" ^ string_of_int i)) in
    let b = Bounds.create u in
    Bounds.bound b s ~lower:(Tuple_set.empty 1) ~upper:(Tuple_set.univ n);
    Bounds.bound b r ~lower:(Tuple_set.empty 2)
      ~upper:
        (Tuple_set.of_list 2
           (List.concat_map
              (fun i -> List.init n (fun j -> [| i; j |]))
              (List.init n (fun i -> i))));
    let f = random_formula rand s r in
    let problem = Solve.{ bounds = b; constraints = [ f ] } in
    let solver_sat =
      match Solve.solve problem with
      | Solve.Sat inst, _ ->
          check "instance satisfies formula under Eval" true
            (Eval.check inst f);
          true
      | (Solve.Unsat | Solve.Unknown), _ -> false
    in
    let brute = brute_force_sat n s r f in
    check "solver agrees with brute force" brute solver_sat
  done

(* --- multiplicities: the ladder encoding of lone/one ----------------------- *)

(* One unary relation with 0-7 upper tuples over an 8-atom universe and a
   random lower bound within it, so some cells are constant-true; each
   multiplicity alone and negated must be sat exactly when some subset
   between the bounds satisfies it, and every model must check. *)
let test_multiplicities_vs_brute_force () =
  let rand = Random.State.make [| 41 |] in
  let n = 8 in
  let u = Universe.of_atoms (List.init n (fun i -> "m" ^ string_of_int i)) in
  for _ = 1 to 40 do
    let upper =
      List.filter
        (fun _ -> Random.State.bool rand)
        (List.init 7 (fun i -> [| i |]))
    in
    let lower, free =
      List.partition (fun _ -> Random.State.int rand 4 = 0) upper
    in
    let s = Relation.make "S" 1 in
    let b = Bounds.create u in
    Bounds.bound b s ~lower:(Tuple_set.of_list 1 lower)
      ~upper:(Tuple_set.of_list 1 upper);
    List.iter
      (fun m ->
        List.iter
          (fun f ->
            let brute =
              List.exists
                (fun chosen ->
                  Eval.check
                    (Instance.make u
                       [ (s, Tuple_set.of_list 1 (lower @ chosen)) ])
                    f)
                (subsets free)
            in
            let solver_sat =
              match Solve.solve Solve.{ bounds = b; constraints = [ f ] } with
              | Solve.Sat inst, _ ->
                  check "model satisfies the multiplicity" true
                    (Eval.check inst f);
                  true
              | (Solve.Unsat | Solve.Unknown), _ -> false
            in
            check
              (Fmt.str "%a: solver agrees with brute force (%d lower, %d free)"
                 Ast.pp_formula f (List.length lower) (List.length free))
              brute solver_sat)
          [ Ast.Mult (m, Ast.Rel s); Ast.Not_f (Ast.Mult (m, Ast.Rel s)) ])
      [ Ast.Mno; Ast.Msome; Ast.Mlone; Ast.Mone ]
  done

(* [one S] over [n] free tuples is linear: the pairwise encoding of
   [lone] needed about n^2 gates. *)
let test_one_is_linear () =
  List.iter
    (fun n ->
      let u =
        Universe.of_atoms (List.init n (fun i -> "o" ^ string_of_int i))
      in
      let s = Relation.make "S" 1 in
      let b = Bounds.create u in
      Bounds.bound b s ~lower:(Tuple_set.empty 1) ~upper:(Tuple_set.univ n);
      let solver = Separ_sat.Solver.create () in
      let tr = Translate.create ~rels:[ s ] b solver in
      let gates0 = Circuit.gate_count tr.Translate.circuit in
      let clauses0 = Separ_sat.Solver.n_clauses solver in
      Translate.assert_formula tr (Ast.Dsl.one (Ast.Rel s));
      let gates = Circuit.gate_count tr.Translate.circuit - gates0 in
      let clauses = Separ_sat.Solver.n_clauses solver - clauses0 in
      check (Printf.sprintf "one over %d tuples: %d gates <= 4n" n gates) true
        (gates <= 4 * n);
      check (Printf.sprintf "one over %d tuples: %d clauses <= 8n" n clauses)
        true
        (clauses <= 8 * n))
    [ 64; 512 ]

let test_stats_populated () =
  let problem, _ = paper_problem no_extra in
  let _, session = Solve.solve problem in
  let st = Solve.stats session in
  check "has variables" true (st.Solve.n_vars > 0);
  check "has clauses" true (st.Solve.n_clauses > 0);
  check "translation timed" true (st.Solve.translation_ms >= 0.0)

let test_stats_refresh () =
  (* Regression: n_vars/n_clauses used to be frozen at prepare time;
     enumeration adds blocking clauses and stats must report the live
     formula.  (Variable counts no longer grow here: the canonical
     lexicographic minimization works purely through assumptions,
     allocating no activation variables.) *)
  let problem, _ = paper_problem no_extra in
  let session = Solve.prepare problem in
  let st0 = Solve.stats session in
  (match Solve.next session with
  | Solve.Sat _ -> Solve.block session
  | Solve.Unsat | Solve.Unknown -> Alcotest.fail "expected sat");
  (match Solve.next session with
  | Solve.Sat _ -> ()
  | Solve.Unsat | Solve.Unknown -> Alcotest.fail "expected a second instance");
  let st1 = Solve.stats session in
  check "clause count grew past the prepare-time snapshot" true
    (st1.Solve.n_clauses > st0.Solve.n_clauses);
  check "variable count did not shrink" true
    (st1.Solve.n_vars >= st0.Solve.n_vars)

let test_enumerate_truncated () =
  (* the paper example has exactly 4 minimal instances *)
  let problem, _ = paper_problem no_extra in
  let instances, truncated, _ = Solve.enumerate ~limit:2 problem in
  check_int "cut off at the limit" 2 (List.length instances);
  check "truncated flagged" true truncated;
  let problem, _ = paper_problem no_extra in
  let instances, truncated, _ = Solve.enumerate ~limit:4 problem in
  check_int "limit equal to instance count" 4 (List.length instances);
  check "stopping exactly at the limit counts as truncated" true truncated

let test_budget_unknown_propagates () =
  let problem, _ = paper_problem no_extra in
  let session =
    Solve.prepare
      ~budget:
        { Separ_sat.Solver.b_max_conflicts = Some 0; b_max_time_ms = None }
      problem
  in
  (match Solve.next session with
  | Solve.Unknown -> ()
  | Solve.Sat _ | Solve.Unsat ->
      Alcotest.fail "zero budget must yield Unknown");
  let problem, _ = paper_problem no_extra in
  let instances, truncated, _ =
    Solve.enumerate
      ~budget:
        { Separ_sat.Solver.b_max_conflicts = Some 0; b_max_time_ms = None }
      problem
  in
  check_int "no instances under a zero budget" 0 (List.length instances);
  check "a budget abort is not a truncation" false truncated

(* --- shared base: prepare_base + attach/detach ---------------------------- *)

(* Drain a session: every minimal instance, in order, as the values of
   [rels]. *)
let drain session rels =
  let rec go acc =
    match Solve.next session with
    | Solve.Sat inst ->
        Solve.block session;
        go (List.map (fun r -> Tuple_set.to_list (Instance.value inst r)) rels
            :: acc)
    | Solve.Unsat -> List.rev acc
    | Solve.Unknown -> Alcotest.fail "unbudgeted session answered Unknown"
  in
  go []

let paper_deltas =
  let open Ast.Dsl in
  [
    ("no delta", no_extra);
    ("no applications", fun application _ _ -> [ no (rel application) ]);
    ("one application", fun application _ _ -> [ one (rel application) ]);
    ("two components", fun _ component _ -> [ not_ (lone (rel component)) ]);
  ]

let test_shared_base_matches_prepare () =
  (* Each delta attached to one shared base must decode the same
     instances, in the same order, as a fresh [prepare] of base + delta;
     only the attached sessions start from the clauses already there. *)
  let base_problem, (application, component, cmps) = paper_problem no_extra in
  let base =
    Solve.prepare_base
      ~rels:(Bounds.relations base_problem.Solve.bounds)
      base_problem
  in
  List.iter
    (fun (name, delta) ->
      let ref_problem, (a', c', p') = paper_problem delta in
      let ref_session = Solve.prepare ref_problem in
      let expected = drain ref_session [ a'; c'; p' ] in
      check (name ^ ": from-scratch session reuses nothing") true
        ((Solve.stats ref_session).Solve.reused_clauses = 0);
      let session =
        Solve.attach base ~rels:[]
          ~constraints:(delta application component cmps)
      in
      let st = Solve.stats session in
      check (name ^ ": attached session reuses the base clauses") true
        (st.Solve.reused_clauses > 0);
      check (name ^ ": attach encodes less than from scratch") true
        (st.Solve.delta_clauses
        < (Solve.stats ref_session).Solve.delta_clauses);
      check (name ^ ": same instances in the same order") true
        (drain session [ application; component; cmps ] = expected);
      Solve.detach session)
    paper_deltas

let test_session_accounting () =
  (* Both session flavours account against a snapshot of the solver
     taken before their translation: zeros for [prepare], so its deltas
     are its totals and it reuses nothing; the base as it stood for
     [attach], so it reuses exactly what the base held then. *)
  let problem, (application, component, cmps) = paper_problem no_extra in
  let st = Solve.stats (Solve.prepare problem) in
  check_int "prepare: delta_vars = n_vars" st.Solve.n_vars st.Solve.delta_vars;
  check_int "prepare: delta_clauses = n_clauses" st.Solve.n_clauses
    st.Solve.delta_clauses;
  check_int "prepare: delta_gates = n_gates" st.Solve.n_gates
    st.Solve.delta_gates;
  check_int "prepare: reused_clauses = 0" 0 st.Solve.reused_clauses;
  check_int "prepare: reused_learnts = 0" 0 st.Solve.reused_learnts;
  let base =
    Solve.prepare_base ~rels:(Bounds.relations problem.Solve.bounds) problem
  in
  let solver = Solve.base_solver base in
  let reused =
    List.map
      (fun (name, delta) ->
        let clauses0 = Separ_sat.Solver.n_clauses solver in
        let vars0 = Separ_sat.Solver.n_vars solver in
        let learnts0 = (Solve.base_stats base).Separ_sat.Solver.s_learnts in
        let session =
          Solve.attach base ~rels:[]
            ~constraints:(delta application component cmps)
        in
        let st = Solve.stats session in
        check_int (name ^ ": reused_clauses = the base's clauses") clauses0
          st.Solve.reused_clauses;
        check_int (name ^ ": reused_learnts = the base's learnts") learnts0
          st.Solve.reused_learnts;
        check_int (name ^ ": delta_vars = what the attach added")
          (st.Solve.n_vars - vars0) st.Solve.delta_vars;
        check_int (name ^ ": delta_clauses = what the attach added")
          (st.Solve.n_clauses - clauses0) st.Solve.delta_clauses;
        ignore (drain session [ application; component; cmps ]);
        Solve.detach session;
        clauses0)
      paper_deltas
  in
  check "later attaches found a grown base" true
    (List.hd (List.rev reused) > List.hd reused)

let test_detach_retires_delta () =
  (* An attached delta and its blocking clauses hold for that session
     only: after [detach] the base answers as if they were never there. *)
  let problem, (application, component, cmps) = paper_problem no_extra in
  let base =
    Solve.prepare_base ~rels:(Bounds.relations problem.Solve.bounds) problem
  in
  let rels = [ application; component; cmps ] in
  let fresh () = Solve.attach base ~rels:[] ~constraints:[] in
  let unsat =
    Solve.attach base ~rels:[]
      ~constraints:[ Ast.Dsl.no (Ast.Rel application) ]
  in
  (match Solve.next unsat with
  | Solve.Unsat -> ()
  | Solve.Sat _ | Solve.Unknown -> Alcotest.fail "no applications is unsat");
  Solve.detach unsat;
  let first = fresh () in
  let instances = drain first rels in
  check_int "four minimal instances after the unsat delta" 4
    (List.length instances);
  Solve.detach first;
  let again = fresh () in
  check "blocking clauses died with their session" true
    (drain again rels = instances);
  Solve.detach again

let test_attach_binds_new_relations () =
  (* Relations bounded into the base's bounds but left out of
     [prepare_base ~rels] (a signature's witnesses, bounded before or
     after the base is built) are translated at [attach] and decoded
     from its instances; each attach may bring its own. *)
  let problem, (_, component, _) = paper_problem no_extra in
  let bounds = problem.Solve.bounds in
  let rels = Bounds.relations bounds in
  let witness name =
    let w = Relation.make name 1 in
    Bounds.bound bounds w ~lower:(Tuple_set.empty 1)
      ~upper:(Bounds.tuples bounds [ [ "Cmp0" ]; [ "Cmp1" ] ]);
    w
  in
  let early = witness "w1" in
  let base = Solve.prepare_base ~rels problem in
  List.iter
    (fun w ->
      let name = Relation.name w in
      let delta = Ast.Dsl.[ one (rel w); rel w <: rel component ] in
      let session = Solve.attach base ~rels:[ w ] ~constraints:delta in
      (match Solve.next session with
      | Solve.Sat inst ->
          check_int (name ^ " decoded as a singleton") 1
            (Tuple_set.size (Instance.value inst w));
          check (name ^ " instance verifies") true
            (Solve.verify
               Solve.{ bounds; constraints = problem.constraints @ delta }
               inst)
      | Solve.Unsat | Solve.Unknown -> Alcotest.fail "expected sat");
      Solve.detach session)
    [ early; witness "w2" ]

let test_attach_budget_scoped () =
  (* A budget given to [attach] meters that session alone: it runs out
     there, and the next attach on the same base is unaffected. *)
  let problem, _ = paper_problem no_extra in
  let base =
    Solve.prepare_base ~rels:(Bounds.relations problem.Solve.bounds) problem
  in
  let starved =
    Solve.attach
      ~budget:
        { Separ_sat.Solver.b_max_conflicts = Some 0; b_max_time_ms = None }
      base ~rels:[] ~constraints:[]
  in
  (match Solve.next starved with
  | Solve.Unknown -> ()
  | Solve.Sat _ | Solve.Unsat ->
      Alcotest.fail "zero budget must yield Unknown");
  let remaining = Solve.remaining_budget starved in
  check "starved session reports its exhausted budget" true
    (match remaining.Separ_sat.Solver.b_max_conflicts with
    | Some c -> c <= 0
    | None -> false);
  Solve.detach starved;
  let session = Solve.attach base ~rels:[] ~constraints:[] in
  check "unbudgeted attach has no conflict cap" true
    ((Solve.remaining_budget session).Separ_sat.Solver.b_max_conflicts = None);
  (match Solve.next session with
  | Solve.Sat _ -> ()
  | Solve.Unsat | Solve.Unknown -> Alcotest.fail "expected sat");
  Solve.detach session

(* --- circuits: normal form and Tseitin encoding ---------------------------- *)

let check_gate msg (want : Circuit.gate) (got : Circuit.gate) =
  check_int msg want.Circuit.id got.Circuit.id

(* Direct evaluation under [env.(v)] for input variable [v]. *)
let rec eval_gate env (g : Circuit.gate) =
  match g.Circuit.node with
  | Circuit.True -> true
  | Circuit.False -> false
  | Circuit.Lit v -> env.(v)
  | Circuit.Not a -> not (eval_gate env a)
  | Circuit.And ins -> Array.for_all (eval_gate env) ins
  | Circuit.Or ins -> Array.exists (eval_gate env) ins

(* The normal form the constructors promise for every n-ary node. *)
let normalized (g : Circuit.gate) =
  match g.Circuit.node with
  | Circuit.And ins | Circuit.Or ins ->
      let n = Array.length ins in
      let ids = Array.map (fun (x : Circuit.gate) -> x.Circuit.id) ins in
      n >= 2
      && Array.for_all
           (fun (x : Circuit.gate) ->
             not (Circuit.is_true x || Circuit.is_false x))
           ins
      && List.for_all
           (fun i -> ids.(i) < ids.(i + 1))
           (List.init (n - 1) Fun.id)
      && not
           (Array.exists
              (fun (x : Circuit.gate) ->
                match x.Circuit.node with
                | Circuit.Not y -> Array.mem y.Circuit.id ids
                | _ -> false)
              ins)
  | _ -> true

let test_circuit_canonical () =
  let c = Circuit.create () in
  let a = Circuit.lit c 1 and b = Circuit.lit c 2 and d = Circuit.lit c 3 in
  let ab = Circuit.and_ c a b in
  check_gate "and_ commutes" ab (Circuit.and_ c b a);
  check_gate "big_and of a pair" ab (Circuit.big_and c [ b; a ]);
  check_gate "big_and drops repeats" ab (Circuit.big_and c [ a; b; a; b; b ]);
  check_gate "big_or of a pair" (Circuit.or_ c a b)
    (Circuit.big_or c [ b; a; a ]);
  let abd = Circuit.big_and c [ a; b; d ] in
  check "three inputs, one gate" true
    (match abd.Circuit.node with
    | Circuit.And ins -> Array.length ins = 3
    | _ -> false);
  check_gate "three inputs, any order" abd (Circuit.big_and c [ d; a; d; b ]);
  check "and_ over an and is not flattened" true
    ((Circuit.and_ c ab d).Circuit.id <> abd.Circuit.id);
  check_gate "one input is that input" d (Circuit.big_or c [ d; d ]);
  let _, misses = Circuit.hashcons_counts c in
  let n = Circuit.gate_count c in
  ignore (Circuit.big_and c [ b; d; a ]);
  ignore (Circuit.and_ c b a);
  check_int "rebuilding makes no gate" n (Circuit.gate_count c);
  check_int "rebuilding misses nothing" misses
    (snd (Circuit.hashcons_counts c));
  (* random permutations and repeats of random input lists *)
  let rand = Random.State.make [| 5 |] in
  let pool = Array.init 6 (fun i -> Circuit.lit c (i + 1)) in
  let pool = Array.append pool (Array.map (Circuit.not_ c) pool) in
  for _ = 1 to 200 do
    let gs =
      List.init (Random.State.int rand 5) (fun _ ->
          pool.(Random.State.int rand (Array.length pool)))
    in
    let shuffled =
      List.map snd
        (List.sort compare
           (List.map (fun g -> (Random.State.bits rand, g)) (gs @ gs)))
    in
    let x = Circuit.big_and c gs and y = Circuit.big_or c gs in
    check_gate "big_and permutation" x (Circuit.big_and c shuffled);
    check_gate "big_or permutation" y (Circuit.big_or c shuffled);
    check "big_and normalized" true (normalized x);
    check "big_or normalized" true (normalized y);
    match
      List.sort_uniq compare
        (List.map (fun (g : Circuit.gate) -> g.Circuit.id) gs)
    with
    | [ _; _ ] ->
        let g1 = List.hd gs and g2 = List.find (fun g -> g != List.hd gs) gs in
        check_gate "big_and = and_" x (Circuit.and_ c g1 g2);
        check_gate "big_or = or_" y (Circuit.or_ c g2 g1)
    | _ -> ()
  done

let test_circuit_folding () =
  let c = Circuit.create () in
  let tt = Circuit.tt c and ff = Circuit.ff c in
  let a = Circuit.lit c 1 and b = Circuit.lit c 2 in
  let na = Circuit.not_ c a in
  check_gate "empty and" tt (Circuit.big_and c []);
  check_gate "empty or" ff (Circuit.big_or c []);
  check_gate "true input dropped" (Circuit.and_ c a b)
    (Circuit.big_and c [ a; tt; b ]);
  check_gate "false input dropped" (Circuit.or_ c a b)
    (Circuit.big_or c [ ff; a; b ]);
  check_gate "false decides and" ff (Circuit.big_and c [ a; ff; b ]);
  check_gate "true decides or" tt (Circuit.big_or c [ a; b; tt ]);
  check_gate "and_ with true" a (Circuit.and_ c tt a);
  check_gate "or_ with true" tt (Circuit.or_ c a tt);
  check_gate "complement in and_" ff (Circuit.and_ c na a);
  check_gate "complement in or_" tt (Circuit.or_ c a na);
  check_gate "complement in big_and" ff (Circuit.big_and c [ b; a; b; na ]);
  check_gate "complement in big_or" tt (Circuit.big_or c [ na; b; a ]);
  check_gate "double negation" a (Circuit.not_ c na);
  check_gate "not true" ff (Circuit.not_ c tt);
  check_gate "not hash-consed" na (Circuit.not_ c a);
  check_gate "ff implies anything" tt (Circuit.implies c ff b);
  check_gate "a iff a" tt (Circuit.iff c a a);
  Alcotest.check_raises "lit 0 rejected"
    (Invalid_argument "Circuit.lit: non-positive variable") (fun () ->
      ignore (Circuit.lit c 0))

(* A random circuit over input variables [1..k]: every gate built,
   newest (the root) first.  Inputs are drawn from what is already built, so
   gates share subterms and meet their own complements. *)
let random_circuit rand c k =
  let built = ref [ Circuit.tt c; Circuit.ff c ] in
  for v = 1 to k do
    built := Circuit.lit c v :: !built
  done;
  let pick () =
    let l = !built in
    List.nth l (Random.State.int rand (min 8 (List.length l)))
  in
  for _ = 1 to 4 + Random.State.int rand 12 do
    let ins () = List.init (Random.State.int rand 5) (fun _ -> pick ()) in
    let g =
      match Random.State.int rand 7 with
      | 0 -> Circuit.not_ c (pick ())
      | 1 -> Circuit.and_ c (pick ()) (pick ())
      | 2 -> Circuit.or_ c (pick ()) (pick ())
      | 3 -> Circuit.big_and c (ins ())
      | 4 -> Circuit.big_or c (ins ())
      | 5 -> Circuit.implies c (pick ()) (pick ())
      | _ -> Circuit.iff c (pick ()) (pick ())
    in
    built := g :: !built
  done;
  !built

(* Under every assignment of the inputs: with the guard assumed, the
   CNF is satisfiable exactly when the root evaluates true; with the
   guard false it is always satisfiable; and in every model each gate's
   literal carries the gate's value. *)
let test_circuit_tseitin_vs_eval () =
  let module S = Separ_sat.Solver in
  let rand = Random.State.make [| 31 |] in
  for _ = 1 to 150 do
    let k = 1 + Random.State.int rand 6 in
    let s = S.create () in
    for _ = 1 to k do
      ignore (S.new_var s)
    done;
    let c = Circuit.create () in
    let gates = random_circuit rand c k in
    List.iter (fun g -> check "normalized" true (normalized g)) gates;
    let root = List.hd gates in
    let enc = Circuit.encoder c s in
    let guard = S.new_var s in
    Circuit.assert_gate_under enc ~guard root;
    let lits = List.map (fun g -> (g, Circuit.encode enc g)) gates in
    for bits = 0 to (1 lsl k) - 1 do
      let env =
        Array.init (k + 1) (fun v -> v > 0 && bits land (1 lsl (v - 1)) <> 0)
      in
      let inputs =
        List.init k (fun i -> if env.(i + 1) then i + 1 else -(i + 1))
      in
      let holds = eval_gate env root in
      check "guarded: sat iff the root holds" holds
        (S.solve ~assumptions:(guard :: inputs) s = S.Sat);
      check "false guard: always sat" true
        (S.solve ~assumptions:(-guard :: inputs) s = S.Sat);
      List.iter
        (fun (g, l) ->
          check "literal = value" (eval_gate env g)
            (if l > 0 then S.value s l else not (S.value s (-l))))
        lits
    done
  done

(* --- matrices: code arithmetic vs the tuple-set algebra ------------------ *)

(* The cells of a ground matrix, as sorted codes; every cell must be
   constant-true. *)
let ground_codes m =
  List.sort compare
    (Matrix.fold
       (fun code g acc ->
         check "ground cell is true" true (Circuit.is_true g);
         code :: acc)
       m [])

let ts_codes ~n ts = List.map (Matrix.encode ~n) (Tuple_set.to_list ts)

let test_matrix_vs_tuple_sets () =
  let rand = Random.State.make [| 5 |] in
  let random_set n arity =
    let rec all k =
      if k = 0 then [ [] ]
      else
        List.concat_map (fun t -> List.init n (fun a -> a :: t)) (all (k - 1))
    in
    Tuple_set.of_list arity
      (List.filter_map
         (fun t ->
           if Random.State.int rand 5 < 2 then Some (Array.of_list t) else None)
         (all arity))
  in
  for _ = 1 to 200 do
    let n = 1 + Random.State.int rand 5 in
    let c = Circuit.create () in
    let matrix ts =
      let m = Matrix.create ~n ~arity:(Tuple_set.arity ts) in
      Tuple_set.iter
        (fun t -> Matrix.set m (Matrix.encode ~n t) (Circuit.tt c))
        ts;
      m
    in
    let same what ts m =
      Alcotest.(check (list int)) what (ts_codes ~n ts) (ground_codes m)
    in
    let ka = 1 + Random.State.int rand 3
    and kb = 1 + Random.State.int rand 3 in
    let a = random_set n ka and b = random_set n kb and a' = random_set n ka in
    let ma = matrix a and mb = matrix b and ma' = matrix a' in
    same "encode round trip" a ma;
    if ka + kb > 2 then same "join" (Tuple_set.join a b) (Matrix.join c ma mb);
    same "product" (Tuple_set.product a b) (Matrix.product c ma mb);
    same "union" (Tuple_set.union a a') (Matrix.union c ma ma');
    same "inter" (Tuple_set.inter a a') (Matrix.inter c ma ma');
    same "diff" (Tuple_set.diff a a') (Matrix.diff c ma ma');
    if ka = 2 then begin
      same "transpose" (Tuple_set.transpose a) (Matrix.transpose ma);
      same "closure" (Tuple_set.closure a) (Matrix.closure c ma)
    end
  done

(* An expression is memoized on the atoms bound to its own variables:
   under [all x: S | x.R in T.R], [T.R] is built once for all atoms of
   [S] while [x.R] is built once per atom. *)
let test_memo_keys_free_variables () =
  let n = 4 in
  let u = Universe.of_atoms (List.init n (fun i -> "k" ^ string_of_int i)) in
  let s = Relation.make "S" 1 and t = Relation.make "T" 1 in
  let r = Relation.make "R" 2 in
  let b = Bounds.create u in
  Bounds.bound b s ~lower:(Tuple_set.empty 1) ~upper:(Tuple_set.univ n);
  Bounds.bound b t ~lower:(Tuple_set.empty 1) ~upper:(Tuple_set.univ n);
  Bounds.bound b r ~lower:(Tuple_set.empty 2)
    ~upper:(Tuple_set.product (Tuple_set.univ n) (Tuple_set.univ n));
  let tr = Translate.create ~rels:[ s; t; r ] b (Separ_sat.Solver.create ()) in
  let f =
    Ast.Dsl.all (Ast.Rel s) (fun x ->
        Ast.Subset (Ast.Join (x, Ast.Rel r), Ast.Join (Ast.Rel t, Ast.Rel r)))
  in
  let g = Translate.gate_of_formula tr f in
  let hits, misses = Translate.cache_counts tr in
  check_int "one miss per x.R plus one for T.R" (n + 1) misses;
  check_int "T.R hit for every other atom" (n - 1) hits;
  let g' = Translate.gate_of_formula tr f in
  check_int "retranslation gives the same gate" g.Circuit.id g'.Circuit.id;
  let hits', misses' = Translate.cache_counts tr in
  check_int "retranslation misses nothing" misses misses';
  check_int "retranslation hits every subterm" (hits + (2 * n)) hits'

let test_universe () =
  let u = Universe.of_atoms [ "x"; "y" ] in
  check_int "size" 2 (Universe.size u);
  check_int "atom index" 1 (Universe.atom u "y");
  check "mem" true (Universe.mem u "x");
  check "not mem" false (Universe.mem u "z");
  Alcotest.check_raises "duplicate atoms rejected"
    (Invalid_argument "Universe.of_atoms: duplicate atom x") (fun () ->
      ignore (Universe.of_atoms [ "x"; "x" ]))

let tests =
  [
    Alcotest.test_case "tuple-set ops" `Quick test_ts_ops;
    Alcotest.test_case "tuple-set union merge semantics" `Quick
      test_ts_union_merge;
    Alcotest.test_case "tuple-set join" `Quick test_ts_join;
    Alcotest.test_case "tuple-set product/transpose" `Quick
      test_ts_product_transpose;
    Alcotest.test_case "tuple-set closure" `Quick test_ts_closure;
    Alcotest.test_case "paper example sat" `Quick test_paper_example_sat;
    Alcotest.test_case "paper example minimal" `Quick test_paper_example_minimal;
    Alcotest.test_case "paper example unsat" `Quick
      test_paper_example_unsat_no_apps;
    Alcotest.test_case "paper example enumeration" `Quick
      test_paper_example_enumeration;
    Alcotest.test_case "mult no" `Quick test_mult_no;
    Alcotest.test_case "mult one" `Quick test_mult_one;
    Alcotest.test_case "mult lone allows empty" `Quick
      test_mult_lone_allows_empty;
    Alcotest.test_case "all quantifier" `Quick test_quantifier_all;
    Alcotest.test_case "exists quantifier" `Quick test_quantifier_exists_witness;
    Alcotest.test_case "differential vs ground eval" `Slow
      test_differential_vs_eval;
    Alcotest.test_case "multiplicities vs brute force" `Quick
      test_multiplicities_vs_brute_force;
    Alcotest.test_case "one is linear in the cells" `Quick test_one_is_linear;
    Alcotest.test_case "solver stats" `Quick test_stats_populated;
    Alcotest.test_case "stats refresh as formula grows" `Quick
      test_stats_refresh;
    Alcotest.test_case "enumerate reports truncation" `Quick
      test_enumerate_truncated;
    Alcotest.test_case "budget unknown propagates" `Quick
      test_budget_unknown_propagates;
    Alcotest.test_case "shared base matches prepare" `Quick
      test_shared_base_matches_prepare;
    Alcotest.test_case "session accounting against its snapshot" `Quick
      test_session_accounting;
    Alcotest.test_case "detach retires the delta" `Quick
      test_detach_retires_delta;
    Alcotest.test_case "attach binds new relations" `Quick
      test_attach_binds_new_relations;
    Alcotest.test_case "attach budget is per session" `Quick
      test_attach_budget_scoped;
    Alcotest.test_case "matrix code arithmetic vs tuple sets" `Quick
      test_matrix_vs_tuple_sets;
    Alcotest.test_case "memo keys on free variables" `Quick
      test_memo_keys_free_variables;
    Alcotest.test_case "universe" `Quick test_universe;
    Alcotest.test_case "circuit canonical n-ary gates" `Quick
      test_circuit_canonical;
    Alcotest.test_case "circuit constant and complement folding" `Quick
      test_circuit_folding;
    Alcotest.test_case "circuit tseitin vs direct eval" `Quick
      test_circuit_tseitin_vs_eval;
  ]
