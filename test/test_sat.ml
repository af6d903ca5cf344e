(* Tests for the CDCL SAT solver: unit behaviours, differential testing
   against the naive DPLL reference, and the minimal-model machinery. *)

open Separ_sat
open Separ_test_support

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let solve_clauses ?(assumptions = []) clauses =
  let s = Solver.create () in
  List.iter (Solver.add_clause s) clauses;
  (Solver.solve ~assumptions s, s)

let test_empty () =
  let r, _ = solve_clauses [] in
  check "empty problem is sat" true (r = Solver.Sat)

let test_unit_propagation () =
  let r, s = solve_clauses [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ] ] in
  check "sat" true (r = Solver.Sat);
  check "v1" true (Solver.value s 1);
  check "v2" true (Solver.value s 2);
  check "v3" true (Solver.value s 3)

let test_trivially_unsat () =
  let r, _ = solve_clauses [ [ 1 ]; [ -1 ] ] in
  check "unsat" true (r = Solver.Unsat)

let test_empty_clause () =
  let r, _ = solve_clauses [ [ 1 ]; [] ] in
  check "unsat" true (r = Solver.Unsat)

let test_tautology_ignored () =
  let r, _ = solve_clauses [ [ 1; -1 ]; [ 2 ] ] in
  check "sat" true (r = Solver.Sat)

let test_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic small unsat instance *)
  let var p h = (p * 2) + h + 1 in
  let clauses =
    (* each pigeon in some hole *)
    List.init 3 (fun p -> [ var p 0; var p 1 ])
    (* no two pigeons share a hole *)
    @ List.concat_map
        (fun h ->
          [
            [ -var 0 h; -var 1 h ];
            [ -var 0 h; -var 2 h ];
            [ -var 1 h; -var 2 h ];
          ])
        [ 0; 1 ]
  in
  let r, _ = solve_clauses clauses in
  check "pigeonhole unsat" true (r = Solver.Unsat)

let test_assumptions () =
  let clauses = [ [ 1; 2 ]; [ -1; 3 ] ] in
  let r, s = solve_clauses ~assumptions:[ -2 ] clauses in
  check "sat under -2" true (r = Solver.Sat);
  check "forces 1" true (Solver.value s 1);
  check "forces 3" true (Solver.value s 3);
  check "unsat under -1 -2" true
    (Solver.solve ~assumptions:[ -1; -2 ] s = Solver.Unsat);
  check "still sat without assumptions" true (Solver.solve s = Solver.Sat)

let test_incremental_add () =
  let s = Solver.create () in
  Solver.add_clause s [ 1; 2 ];
  check "sat" true (Solver.solve s = Solver.Sat);
  Solver.add_clause s [ -1 ];
  Solver.add_clause s [ -2 ];
  check "unsat after additions" true (Solver.solve s = Solver.Unsat)

let test_add_clause_after_model () =
  (* adding a clause between solves must not corrupt the solver state
     (regression: unit simplification used to assert decision level 0) *)
  let s = Solver.create () in
  Solver.add_clause s [ 1 ];
  Solver.add_clause s [ 2; 3 ];
  check "sat" true (Solver.solve s = Solver.Sat);
  (* a clause made unit by level-0 facts, added while a model is live *)
  Solver.add_clause s [ -1; 4 ];
  check "still sat" true (Solver.solve s = Solver.Sat);
  check "v4 implied" true (Solver.value s 4)

let random_clauses rand nv nc =
  List.init nc (fun _ ->
      List.init
        (1 + Random.State.int rand 3)
        (fun _ ->
          let v = 1 + Random.State.int rand nv in
          if Random.State.bool rand then v else -v))

(* After the first solve, each instance grows past the solver's
   power-of-two array capacities (16, 32): fresh variables from
   [new_var], each followed by a clause tying it to earlier ones, then a
   second solve of the grown clause set. *)
let test_differential () =
  let rand = Random.State.make [| 7 |] in
  let agrees s clauses =
    let r = Solver.solve s in
    check "sat agrees with reference" (Reference.satisfiable clauses)
      (r = Solver.Sat);
    if r = Solver.Sat then
      check "model satisfies clauses" true
        (Reference.check_model (Solver.model s) clauses)
  in
  for _ = 1 to 500 do
    let nv = 3 + Random.State.int rand 9 in
    let nc = 3 + Random.State.int rand 35 in
    let clauses = random_clauses rand nv nc in
    let s = Solver.create () in
    List.iter (Solver.add_clause s) clauses;
    agrees s clauses;
    let grown = ref clauses in
    let target = 14 + Random.State.int rand 24 in
    while Solver.n_vars s < target do
      let v = Solver.new_var s in
      check_int "new_var is the next variable" v (Solver.n_vars s);
      let c =
        (if Random.State.bool rand then v else -v)
        :: List.hd (random_clauses rand (v - 1) 1)
      in
      Solver.add_clause s c;
      grown := c :: !grown
    done;
    agrees s !grown
  done

let test_minimize_properties () =
  (* every model minimize_lex returns satisfies the clauses and is
     subset-minimal: no true soft variable can be made false while the
     false ones stay false *)
  let rand = Random.State.make [| 11 |] in
  for _ = 1 to 200 do
    let nv = 4 + Random.State.int rand 7 in
    let clauses = random_clauses rand nv (4 + Random.State.int rand 25) in
    let s = Solver.create () in
    Dimacs.load_into s { Dimacs.n_vars = nv; clauses };
    let r = Solver.solve s in
    if r = Solver.Sat then begin
      let soft = List.init nv (fun i -> i + 1) in
      let trues = Models.minimize_lex s ~soft in
      check "minimized model valid" true
        (Reference.check_model (Solver.model s) clauses);
      List.iter
        (fun v ->
          let assumptions =
            -v
            :: List.filter_map
                 (fun u ->
                   if u = v || List.mem u trues then None else Some (-u))
                 soft
          in
          check "scenario is minimal" true
            (Solver.solve ~assumptions s = Solver.Unsat))
        trues
    end
  done

let test_enumerate_minimal_oracle () =
  (* brute-force oracle: with every variable soft, a true-set is one
     assignment, and enumerate_minimal must return exactly the satisfying
     true-sets that have no satisfying proper subset *)
  let rand = Random.State.make [| 53 |] in
  let canon models =
    List.sort compare (List.map (List.sort compare) models)
  in
  for _ = 1 to 60 do
    let nv = 3 + Random.State.int rand 4 in
    let clauses = random_clauses rand nv (2 + Random.State.int rand (3 * nv)) in
    let soft = List.init nv (fun i -> i + 1) in
    let true_set a = List.filter (fun v -> a land (1 lsl (v - 1)) <> 0) soft in
    let sat a =
      Reference.satisfiable
        (clauses
        @ List.map
            (fun v -> if a land (1 lsl (v - 1)) <> 0 then [ v ] else [ -v ])
            soft)
    in
    let sats = List.filter sat (List.init (1 lsl nv) Fun.id) in
    let minimal =
      List.filter
        (fun a -> not (List.exists (fun b -> b <> a && b land a = b) sats))
        sats
    in
    let s = Solver.create () in
    List.iter (Solver.add_clause s) clauses;
    Alcotest.(check (list (list int)))
      "enumerated scenarios are exactly the minimal models"
      (canon (List.map true_set minimal))
      (canon (Models.enumerate_minimal s ~soft))
  done

let test_enumerate_minimal () =
  (* x1 or x2: minimal models are {x1} and {x2} *)
  let s = Solver.create () in
  Solver.add_clause s [ 1; 2 ];
  let models = Models.enumerate_minimal s ~soft:[ 1; 2 ] in
  check_int "two minimal models" 2 (List.length models);
  List.iter (fun m -> check_int "each is a singleton" 1 (List.length m)) models

let test_enumerate_minimal_limit () =
  (* x1 or x2, x3 or x4: four minimal models.  A limited enumeration
     stops after [limit] of them and blocks only those, so a second
     enumeration on the same solver yields exactly the rest. *)
  let s = Solver.create () in
  Solver.add_clause s [ 1; 2 ];
  Solver.add_clause s [ 3; 4 ];
  let soft = [ 1; 2; 3; 4 ] in
  let first = Models.enumerate_minimal ~limit:3 s ~soft in
  check_int "limit caps the count" 3 (List.length first);
  check_int "limit 0 enumerates nothing" 0
    (List.length (Models.enumerate_minimal ~limit:0 s ~soft));
  let rest = Models.enumerate_minimal s ~soft in
  let canon models =
    List.sort compare (List.map (List.sort compare) models)
  in
  Alcotest.(check (list (list int)))
    "both runs together are the full antichain"
    [ [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ]; [ 2; 4 ] ]
    (canon (first @ rest))

let test_block_superset () =
  let s = Solver.create () in
  Solver.add_clause s [ 1; 2 ];
  check "sat" true (Solver.solve s = Solver.Sat);
  Models.block_superset s ~trues:[ 1 ];
  Models.block_superset s ~trues:[ 2 ];
  check "all supersets blocked" true (Solver.solve s = Solver.Unsat)

let test_assumption_prefix_conflict () =
  (* conflicts at or below the assumption prefix (the [blevel < n_assumed]
     path in search) must yield Unsat without corrupting the solver *)
  let s = Solver.create () in
  Solver.add_clause s [ -1; -2 ];
  check "conflicting assumption pair" true
    (Solver.solve ~assumptions:[ 1; 2 ] s = Solver.Unsat);
  check "longer prefix, conflict below the last assumption" true
    (Solver.solve ~assumptions:[ 3; 1; 2; 4 ] s = Solver.Unsat);
  check "consistent prefix still sat" true
    (Solver.solve ~assumptions:[ 1 ] s = Solver.Sat);
  check "assumption forces the other side" true
    (Solver.value s 2 = false);
  check "solver still sat without assumptions" true
    (Solver.solve s = Solver.Sat);
  (* deeper: the learnt clause asserts below an assumption level *)
  let s = Solver.create () in
  Solver.add_clause s [ -2; -3 ];
  Solver.add_clause s [ -1; 4 ];
  check "conflict below prefix end" true
    (Solver.solve ~assumptions:[ 1; 2; 3 ] s = Solver.Unsat);
  check "dropping one assumption restores sat" true
    (Solver.solve ~assumptions:[ 1; 2 ] s = Solver.Sat);
  check "implied by first assumption" true (Solver.value s 4)

let test_solve_add_resolve () =
  (* solve -> add clause -> re-solve sequences keep models and learnt
     state consistent *)
  let s = Solver.create () in
  Solver.add_clause s [ 1; 2; 3 ];
  check "sat" true (Solver.solve s = Solver.Sat);
  Solver.add_clause s [ -1 ];
  check "sat after -1" true (Solver.solve s = Solver.Sat);
  check "model respects -1" false (Solver.value s 1);
  Solver.add_clause s [ -2 ];
  check "sat after -2" true (Solver.solve s = Solver.Sat);
  check "3 forced" true (Solver.value s 3);
  Solver.add_clause s [ -3 ];
  check "unsat after all blocked" true (Solver.solve s = Solver.Unsat);
  check "unsat is sticky" true (Solver.solve s = Solver.Unsat)

let test_model_staleness () =
  let s = Solver.create () in
  Solver.add_clause s [ 1; 2 ];
  check "sat" true (Solver.solve s = Solver.Sat);
  ignore (Solver.value s 1);
  Solver.add_clause s [ -1 ];
  check "value raises after add_clause" true
    (match Solver.value s 1 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "model raises after add_clause" true
    (match Solver.model s with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "re-solve re-validates" true (Solver.solve s = Solver.Sat);
  check "fresh model readable" true (Solver.value s 2);
  check "unsat solve invalidates too" true
    (Solver.solve ~assumptions:[ 1 ] s = Solver.Unsat
    &&
    match Solver.model s with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_reduce_db_under_pressure () =
  (* With a pathologically small learnt limit the database is reduced
     constantly; results must still agree with the reference solver, and
     no live antecedent may ever be deleted (a deleted antecedent shows up
     as wrong models or crashes in analyze). *)
  let rand = Random.State.make [| 23 |] in
  let reductions = ref 0 in
  for _ = 1 to 200 do
    (* strict 3-lit clauses near the phase transition: short random
       clauses propagate too eagerly to ever grow the learnt db past the
       trail, so reduction would never trigger on them *)
    let nv = 12 + Random.State.int rand 6 in
    let nc = nv * 9 / 2 in
    let clauses =
      List.init nc (fun _ ->
          List.init 3 (fun _ ->
              let v = 1 + Random.State.int rand nv in
              if Random.State.bool rand then v else -v))
    in
    let s = Solver.create () in
    Solver.set_learnt_limit s 2;
    List.iter (Solver.add_clause s) clauses;
    let r = Solver.solve s in
    let expected = Reference.satisfiable clauses in
    check "agrees with reference under db pressure" expected (r = Solver.Sat);
    if r = Solver.Sat then
      check "model valid under db pressure" true
        (Reference.check_model (Solver.model s) clauses);
    reductions := !reductions + (Solver.stats_record s).Solver.s_db_reductions
  done;
  check "reductions actually fired" true (!reductions > 0)

let test_reduce_db_keeps_antecedents () =
  (* pigeonhole with an aggressive limit: unsat must survive heavy churn *)
  let var p h = (p * 5) + h + 1 in
  let clauses =
    List.init 6 (fun p -> List.init 5 (fun h -> var p h))
    @ List.concat_map
        (fun h ->
          List.concat_map
            (fun a ->
              List.filter_map
                (fun b ->
                  if b > a then Some [ -var a h; -var b h ] else None)
                (List.init 6 Fun.id))
            (List.init 6 Fun.id))
        (List.init 5 Fun.id)
  in
  let s = Solver.create () in
  Solver.set_learnt_limit s 1;
  List.iter (Solver.add_clause s) clauses;
  check "pigeonhole 6-5 unsat under reduction" true
    (Solver.solve s = Solver.Unsat);
  let st = Solver.stats_record s in
  check "reductions fired" true (st.Solver.s_db_reductions > 0);
  check "clauses were deleted" true (st.Solver.s_learnts_deleted > 0)

let test_enumeration_reduction_invariant () =
  (* enumerate_minimal must return identical scenario sets whether the
     learnt database is reduced aggressively or never (seed-for-seed) *)
  let rand = Random.State.make [| 31 |] in
  let canon models =
    List.sort compare (List.map (List.sort compare) models)
  in
  for _ = 1 to 40 do
    let nv = 4 + Random.State.int rand 5 in
    let clauses = random_clauses rand nv (8 + Random.State.int rand 25) in
    let soft = List.init nv (fun i -> i + 1) in
    (* exhaustive enumeration: the full antichain of minimal models is
       order-independent, so it must not depend on db-reduction policy *)
    let run limit =
      let s = Solver.create () in
      Solver.set_learnt_limit s limit;
      List.iter (Solver.add_clause s) clauses;
      Models.enumerate_minimal s ~soft
    in
    let reduced = run 1 and unreduced = run max_int in
    Alcotest.(check (list (list int)))
      "same minimal scenarios with and without reduction" (canon unreduced)
      (canon reduced)
  done

let test_enumeration_no_activation () =
  (* enumeration expresses every candidate through assumptions: it
     allocates no activation variable, so none is live or retired *)
  let s = Solver.create () in
  Solver.add_clause s [ 1; 2 ];
  Solver.add_clause s [ 3; 4 ];
  let models = Models.enumerate_minimal s ~soft:[ 1; 2; 3; 4 ] in
  check "several scenarios" true (List.length models >= 2);
  let live, retired = Solver.activation_counts s in
  check_int "no live activation var" 0 live;
  check_int "no activation var retired" 0 retired;
  check_int "no variable beyond the soft set" 4 (Solver.n_vars s)

(* n-pigeon / (n-1)-hole clauses: small but conflict-rich unsat input
   for the budget tests. *)
let pigeonhole_clauses n =
  let holes = n - 1 in
  let var p h = (p * holes) + h + 1 in
  List.init n (fun p -> List.init holes (fun h -> var p h))
  @ List.concat_map
      (fun h ->
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b -> if b > a then Some [ -var a h; -var b h ] else None)
              (List.init n Fun.id))
          (List.init n Fun.id))
      (List.init holes Fun.id)

let test_budget_conflicts_unknown () =
  let clauses = pigeonhole_clauses 8 in
  let s = Solver.create () in
  List.iter (Solver.add_clause s) clauses;
  let budget = { Solver.b_max_conflicts = Some 5; b_max_time_ms = None } in
  check "tiny budget: unknown" true (Solver.solve ~budget s = Solver.Unknown);
  check "budget respected (within one restart's slack)" true
    (Solver.n_conflicts s <= 6);
  (* the solver state survives a budgeted abort: an unbudgeted re-solve
     still reaches the right answer *)
  check "unbudgeted re-solve proves unsat" true (Solver.solve s = Solver.Unsat)

let test_budget_exhausted_on_entry () =
  let r, _ = solve_clauses [ [ 1; 2 ] ] in
  check "baseline sat" true (r = Solver.Sat);
  let s = Solver.create () in
  Solver.add_clause s [ 1; 2 ];
  let zero = { Solver.b_max_conflicts = Some 0; b_max_time_ms = None } in
  check "zero conflict budget: unknown before search" true
    (Solver.solve ~budget:zero s = Solver.Unknown);
  let expired = { Solver.b_max_conflicts = None; b_max_time_ms = Some 0.0 } in
  check "expired time budget: unknown before search" true
    (Solver.solve ~budget:expired s = Solver.Unknown)

let test_minimize_lex_budget_fallback () =
  (* With no budget the minimum here is one true variable per clause;
     with an exhausted budget, minimize_lex must fall back to *some*
     valid model of the soft set rather than fail. *)
  let s = Solver.create () in
  Solver.add_clause s [ 1; 2; 3 ];
  Solver.add_clause s [ 4; 5 ];
  check "sat" true (Solver.solve s = Solver.Sat);
  let soft = [ 1; 2; 3; 4; 5 ] in
  let budget = { Solver.b_max_conflicts = Some 0; b_max_time_ms = None } in
  let trues = Models.minimize_lex ~budget s ~soft in
  check "fallback model established" true
    (List.for_all (fun v -> Solver.value s v) trues);
  check "fallback satisfies clause 1" true
    (List.exists (fun v -> List.mem v trues) [ 1; 2; 3 ]);
  check "fallback satisfies clause 2" true
    (List.exists (fun v -> List.mem v trues) [ 4; 5 ]);
  (* an unbudgeted minimize_lex from here still reaches the lex-least
     minimum *)
  check "resat" true (Solver.solve s = Solver.Sat);
  let minimal = Models.minimize_lex s ~soft in
  Alcotest.(check (list int)) "true minimum found without budget" [ 3; 5 ]
    minimal

(* Propagation-cascade chains: chain [c] owns variables x_1..x_N (offset
   by [c*N]) and clauses C_j = (x_1 \/ ... \/ x_{j-1} \/ ~x_j).
   Assuming ~x_1 makes the cascade falsify each C_j literal by literal,
   so every clause drags its watch across an ever-longer false prefix —
   Theta(N^3) watch work per chain from a single propagation, with no
   decisions and no conflicts (each C_j ends satisfied by its own ~x_j).
   The triggers must be assumptions, not unit clauses: add_clause
   propagates units eagerly, outside any solve budget.  This is exactly
   the shape that escaped the old conflict-only deadline poll. *)
let cascade_clauses ~chains ~n =
  let clauses = ref [] in
  for c = chains - 1 downto 0 do
    let v k = (c * n) + k in
    for j = n downto 2 do
      clauses := (List.init (j - 1) (fun k -> v (k + 1)) @ [ -v j ]) :: !clauses
    done
  done;
  !clauses

let cascade_assumptions ~chains ~n = List.init chains (fun c -> -((c * n) + 1))

let test_time_budget_no_conflicts () =
  (* sanity on a small member of the family: sat, and conflict-free *)
  let s = Solver.create () in
  List.iter (Solver.add_clause s) (cascade_clauses ~chains:2 ~n:40);
  let small = cascade_assumptions ~chains:2 ~n:40 in
  check "small instance sat" true
    (Solver.solve ~assumptions:small s = Solver.Sat);
  check_int "small instance is conflict-free" 0 (Solver.n_conflicts s);
  (* a member big enough to overrun the time budget many times over *)
  let s = Solver.create () in
  List.iter (Solver.add_clause s) (cascade_clauses ~chains:30 ~n:300);
  let assumptions = cascade_assumptions ~chains:30 ~n:300 in
  let budget_ms = 50.0 in
  let budget =
    { Solver.b_max_conflicts = None; b_max_time_ms = Some budget_ms }
  in
  let t0 = Unix.gettimeofday () in
  let r = Solver.solve ~assumptions ~budget s in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  check "time budget on conflict-free instance: unknown" true
    (r = Solver.Unknown);
  check_int "no conflicts happened" 0 (Solver.n_conflicts s);
  (* the regression being pinned: the old search only polled the clock
     every 64 conflicts, so this instance ran to completion regardless
     of its budget.  2x is the documented slack for poll granularity. *)
  check "returned within 2x of the budget" true
    (elapsed_ms < 2.0 *. budget_ms);
  (* the abort leaves a usable solver behind *)
  check "unbudgeted re-solve answers sat" true
    (Solver.solve ~assumptions s = Solver.Sat)

(* --- failed assumptions (assumption-level unsat cores) -------------------- *)

let test_failed_assumptions_basic () =
  (* joint-unsat assumption pair: the core names a subset of the
     assumptions sufficient for unsatisfiability *)
  let s = Solver.create () in
  Solver.add_clause s [ -1; -2 ];
  check "unsat under 3,1,2" true
    (Solver.solve ~assumptions:[ 3; 1; 2 ] s = Solver.Unsat);
  let core = Solver.failed_assumptions s in
  check "core nonempty" true (core <> []);
  check "core is a subset of the assumptions" true
    (List.for_all (fun a -> List.mem a [ 3; 1; 2 ]) core);
  check "core excludes the irrelevant assumption" true
    (not (List.mem 3 core));
  (* the core alone re-derives unsat on a fresh solver *)
  let s2 = Solver.create () in
  Solver.add_clause s2 [ -1; -2 ];
  check "core re-derives unsat on a fresh solver" true
    (Solver.solve ~assumptions:core s2 = Solver.Unsat);
  (* the solver survives assumption-unsat and agrees with a fresh one *)
  check "reusable: sat without assumptions" true (Solver.solve s = Solver.Sat);
  check "reusable: sat under one assumption" true
    (Solver.solve ~assumptions:[ 1 ] s = Solver.Sat);
  check "model respects the clause" false (Solver.value s 2)

let test_failed_assumptions_edge_cases () =
  (* clauses alone unsat: the assumptions are blameless, core is empty *)
  let s = Solver.create () in
  Solver.add_clause s [ 1 ];
  Solver.add_clause s [ -1 ];
  check "clause-level unsat" true
    (Solver.solve ~assumptions:[ 5 ] s = Solver.Unsat);
  check_int "clause-level unsat has empty core" 0
    (List.length (Solver.failed_assumptions s));
  (* assuming against a unit clause: singleton core *)
  let s = Solver.create () in
  Solver.add_clause s [ 7 ];
  check "unsat assuming -7" true
    (Solver.solve ~assumptions:[ -7 ] s = Solver.Unsat);
  check "core is the contradicted assumption" true
    (Solver.failed_assumptions s = [ -7 ]);
  (* directly contradictory assumptions, no clauses at all *)
  let s = Solver.create () in
  check "x and -x unsat" true
    (Solver.solve ~assumptions:[ 2; -2 ] s = Solver.Unsat);
  check "contradictory pair is the core" true
    (List.sort compare (Solver.failed_assumptions s) = [ -2; 2 ]);
  (* Sat and Unknown leave no core behind *)
  let s = Solver.create () in
  Solver.add_clause s [ 1; 2 ];
  check "sat" true (Solver.solve ~assumptions:[ 1 ] s = Solver.Sat);
  check_int "sat leaves no core" 0 (List.length (Solver.failed_assumptions s));
  let s = Solver.create () in
  List.iter (Solver.add_clause s) (pigeonhole_clauses 8);
  let zero = { Solver.b_max_conflicts = Some 0; b_max_time_ms = None } in
  check "unknown under zero budget" true
    (Solver.solve ~assumptions:[ 1 ] ~budget:zero s = Solver.Unknown);
  check_int "unknown leaves no core" 0
    (List.length (Solver.failed_assumptions s))

let test_failed_assumptions_random () =
  (* On random CNF under random assumptions: a Sat model honours every
     assumption; an Unsat core is a subset of the assumptions that is
     jointly unsat with the clauses (checked by the DPLL reference); and
     the solver stays usable afterwards, agreeing with the reference. *)
  let rand = Random.State.make [| 91 |] in
  for _ = 1 to 120 do
    let nv = 4 + Random.State.int rand 5 in
    let nc = 2 + Random.State.int rand (3 * nv) in
    let clauses =
      List.filter
        (( <> ) [])
        (List.init nc (fun _ ->
             List.init
               (1 + Random.State.int rand 3)
               (fun _ ->
                 let v = 1 + Random.State.int rand nv in
                 if Random.State.bool rand then v else -v)))
    in
    let assumptions =
      List.init
        (1 + Random.State.int rand 3)
        (fun _ ->
          let v = 1 + Random.State.int rand nv in
          if Random.State.bool rand then v else -v)
    in
    let s = Solver.create () in
    List.iter (Solver.add_clause s) clauses;
    (match Solver.solve ~assumptions s with
    | Solver.Sat ->
        check "model honours every assumption" true
          (List.for_all
             (fun a -> Solver.value s (abs a) = (a > 0))
             assumptions)
    | Solver.Unsat ->
        let core = Solver.failed_assumptions s in
        check "core subset of assumptions" true
          (List.for_all (fun a -> List.mem a assumptions) core);
        check "clauses + core jointly unsat (reference)" false
          (Reference.satisfiable (clauses @ List.map (fun a -> [ a ]) core))
    | Solver.Unknown -> Alcotest.fail "unbudgeted solve returned unknown");
    check "solver reusable, agrees with reference" true
      (Solver.solve s = Solver.Sat = Reference.satisfiable clauses)
  done

(* --- canonical lexicographic minimization ---------------------------------- *)

let test_minimize_lex_canonical () =
  (* the lexicographically-least model is a function of the constraints
     only: clause order and prior solver history must not change it —
     the property the incremental ASE path's byte-identity rests on *)
  let clauses = [ [ 1; 2; 3 ]; [ -1; 4 ]; [ 2; 5 ]; [ -3; -5 ] ] in
  let soft = [ 1; 2; 3; 4; 5 ] in
  let run order history =
    let s = Solver.create () in
    List.iter (Solver.add_clause s) order;
    if history then ignore (Solver.solve ~assumptions:[ 3 ] s);
    check "sat" true (Solver.solve s = Solver.Sat);
    Models.minimize_lex s ~soft
  in
  let reference = run clauses false in
  check "clause order irrelevant" true
    (run (List.rev clauses) false = reference);
  check "solver history irrelevant" true (run clauses true = reference)

let test_minimize_lex_is_lex_least () =
  (* brute-force oracle: of all assignments to the soft variables, in
     false<true lexicographic order, the first one consistent with the
     clauses is exactly what minimize_lex must return *)
  let rand = Random.State.make [| 77 |] in
  for _ = 1 to 60 do
    let nv = 4 + Random.State.int rand 3 in
    let nc = 2 + Random.State.int rand (2 * nv) in
    let clauses =
      List.filter
        (( <> ) [])
        (List.init nc (fun _ ->
             List.init
               (1 + Random.State.int rand 3)
               (fun _ ->
                 let v = 1 + Random.State.int rand nv in
                 if Random.State.bool rand then v else -v)))
    in
    let s = Solver.create () in
    List.iter (Solver.add_clause s) clauses;
    if Solver.solve s = Solver.Sat then begin
      let soft = List.init nv (fun i -> i + 1) in
      let got = Models.minimize_lex s ~soft in
      (* enumerate assignments with soft var 1 as the most significant
         bit, so ascending integers are ascending lex order *)
      let expected = ref None in
      (try
         for a = 0 to (1 lsl nv) - 1 do
           let units =
             List.init nv (fun i ->
                 let v = i + 1 in
                 if a land (1 lsl (nv - 1 - i)) <> 0 then [ v ] else [ -v ])
           in
           if Reference.satisfiable (clauses @ units) then begin
             expected :=
               Some (List.filter_map (function [ v ] when v > 0 -> Some v | _ -> None) units);
             raise Exit
           end
         done
       with Exit -> ());
      match !expected with
      | None -> Alcotest.fail "reference found no model of a sat instance"
      | Some exp -> Alcotest.(check (list int)) "lex-least model" exp got
    end
  done

let test_minimize_lex_extra () =
  (* [extra] assumptions scope the minimization without joining the
     formula: guarded and unguarded minimizations answer differently,
     and the guarded pass leaves no residue *)
  let s = Solver.create () in
  Solver.add_clause s [ -10; 1 ]; (* guard 10 forces 1 *)
  Solver.add_clause s [ 1; 2 ];
  check "sat under guard" true (Solver.solve ~assumptions:[ 10 ] s = Solver.Sat);
  let under = Models.minimize_lex ~extra:[ 10 ] s ~soft:[ 1; 2 ] in
  Alcotest.(check (list int)) "guarded: 1 forced, 2 dropped" [ 1 ] under;
  check "resat" true (Solver.solve s = Solver.Sat);
  let free = Models.minimize_lex s ~soft:[ 1; 2 ] in
  Alcotest.(check (list int)) "unguarded: prefers -1, keeps 2" [ 2 ] free

let test_dimacs_roundtrip () =
  let p = Dimacs.{ n_vars = 4; clauses = [ [ 1; -2 ]; [ 3; 4 ]; [ -1 ] ] } in
  let p' = Dimacs.parse_string (Dimacs.to_string p) in
  check_int "vars preserved" p.Dimacs.n_vars p'.Dimacs.n_vars;
  Alcotest.(check (list (list int)))
    "clauses preserved" p.Dimacs.clauses p'.Dimacs.clauses

let test_dimacs_comments () =
  let p = Dimacs.parse_string "c a comment\np cnf 3 2\n1 -2 0\n3 0\n" in
  check_int "vars" 3 p.Dimacs.n_vars;
  check_int "clauses" 2 (List.length p.Dimacs.clauses)

let test_dimacs_whitespace () =
  (* tabs, CRLF line ends and runs of blanks are all legal separators *)
  let p = Dimacs.parse_string "p\tcnf  3 2\r\n1\t-2  0\r\n3\t0\r\n" in
  check_int "vars" 3 p.Dimacs.n_vars;
  Alcotest.(check (list (list int)))
    "clauses" [ [ 1; -2 ]; [ 3 ] ] p.Dimacs.clauses;
  (* a clause-count mismatch in the header warns but still parses *)
  let p = Dimacs.parse_string "p cnf 3 7\n1 2 0\n" in
  check_int "mismatched header tolerated" 1 (List.length p.Dimacs.clauses)

let test_dimacs_satlib_trailer () =
  (* SATLIB benchmark files end with a "%" line, a lone "0" line and a
     blank line; the trailing 0 must not be read as an empty clause
     (which would make every SATLIB instance trivially unsat). *)
  let p = Dimacs.parse_string "p cnf 3 2\n1 -2 0\n3 0\n%\n0\n\n" in
  check_int "vars" 3 p.Dimacs.n_vars;
  Alcotest.(check (list (list int)))
    "trailer ignored" [ [ 1; -2 ]; [ 3 ] ] p.Dimacs.clauses;
  (* everything after the trailer is ignored, even valid-looking clauses *)
  let p = Dimacs.parse_string "p cnf 2 1\n1 2 0\n%\n0\n-1 0\n-2 0\n" in
  Alcotest.(check (list (list int)))
    "clauses after the trailer ignored" [ [ 1; 2 ] ] p.Dimacs.clauses;
  check "satlib instance stays satisfiable" true
    (let s = Solver.create () in
     Dimacs.load_into s p;
     Solver.solve s = Solver.Sat)

let qcheck_dimacs_roundtrip =
  QCheck.Test.make ~name:"DIMACS print/parse round-trips" ~count:200
    QCheck.(small_list (small_list (int_range (-9) 9)))
    (fun raw ->
      let clauses =
        List.map (List.filter (fun l -> l <> 0)) raw
      in
      let n_vars =
        List.fold_left
          (List.fold_left (fun acc l -> max acc (abs l)))
          0 clauses
      in
      let p = Dimacs.{ n_vars; clauses } in
      let p' = Dimacs.parse_string (Dimacs.to_string p) in
      p'.Dimacs.n_vars = n_vars && p'.Dimacs.clauses = clauses)

let qcheck_solver_agrees =
  QCheck.Test.make ~name:"solver agrees with DPLL reference on random CNF"
    ~count:300
    QCheck.(
      pair (int_range 3 8)
        (small_list (small_list (int_range (-8) 8))))
    (fun (nv, raw) ->
      let clauses =
        List.map
          (List.filter_map (fun l ->
               if l = 0 then None
               else
                 let v = (abs l mod nv) + 1 in
                 Some (if l > 0 then v else -v)))
          raw
      in
      let clauses = List.filter (( <> ) []) clauses in
      let r, s = solve_clauses clauses in
      let expected = Reference.satisfiable clauses in
      if r = Solver.Sat then
        expected && Reference.check_model (Solver.model s) clauses
      else not expected)

let tests =
  [
    Alcotest.test_case "empty problem" `Quick test_empty;
    Alcotest.test_case "unit propagation" `Quick test_unit_propagation;
    Alcotest.test_case "trivially unsat" `Quick test_trivially_unsat;
    Alcotest.test_case "empty clause" `Quick test_empty_clause;
    Alcotest.test_case "tautology ignored" `Quick test_tautology_ignored;
    Alcotest.test_case "pigeonhole 3-2" `Quick test_pigeonhole_3_2;
    Alcotest.test_case "assumptions" `Quick test_assumptions;
    Alcotest.test_case "incremental add" `Quick test_incremental_add;
    Alcotest.test_case "add clause after model" `Quick test_add_clause_after_model;
    Alcotest.test_case "assumption prefix conflict" `Quick
      test_assumption_prefix_conflict;
    Alcotest.test_case "solve-add-resolve sequences" `Quick
      test_solve_add_resolve;
    Alcotest.test_case "model staleness" `Quick test_model_staleness;
    Alcotest.test_case "reduce_db under pressure" `Slow
      test_reduce_db_under_pressure;
    Alcotest.test_case "reduce_db keeps antecedents" `Quick
      test_reduce_db_keeps_antecedents;
    Alcotest.test_case "enumeration invariant under reduction" `Slow
      test_enumeration_reduction_invariant;
    Alcotest.test_case "enumeration allocates no activation var" `Quick
      test_enumeration_no_activation;
    Alcotest.test_case "differential vs reference" `Slow test_differential;
    Alcotest.test_case "minimize properties" `Slow test_minimize_properties;
    Alcotest.test_case "enumerate minimal" `Quick test_enumerate_minimal;
    Alcotest.test_case "enumerate minimal vs brute force" `Quick
      test_enumerate_minimal_oracle;
    Alcotest.test_case "enumerate minimal limit" `Quick
      test_enumerate_minimal_limit;
    Alcotest.test_case "block superset" `Quick test_block_superset;
    Alcotest.test_case "conflict budget yields unknown" `Quick
      test_budget_conflicts_unknown;
    Alcotest.test_case "budget exhausted on entry" `Quick
      test_budget_exhausted_on_entry;
    Alcotest.test_case "time budget without conflicts" `Slow
      test_time_budget_no_conflicts;
    Alcotest.test_case "failed assumptions basics" `Quick
      test_failed_assumptions_basic;
    Alcotest.test_case "failed assumptions edge cases" `Quick
      test_failed_assumptions_edge_cases;
    Alcotest.test_case "failed assumptions random vs reference" `Slow
      test_failed_assumptions_random;
    Alcotest.test_case "minimize_lex canonical" `Quick
      test_minimize_lex_canonical;
    Alcotest.test_case "minimize_lex lexicographically least" `Slow
      test_minimize_lex_is_lex_least;
    Alcotest.test_case "minimize_lex extra assumptions" `Quick
      test_minimize_lex_extra;
    Alcotest.test_case "minimize_lex budget fallback" `Quick
      test_minimize_lex_budget_fallback;
    Alcotest.test_case "dimacs round trip" `Quick test_dimacs_roundtrip;
    Alcotest.test_case "dimacs comments" `Quick test_dimacs_comments;
    Alcotest.test_case "dimacs whitespace" `Quick test_dimacs_whitespace;
    Alcotest.test_case "dimacs satlib trailer" `Quick
      test_dimacs_satlib_trailer;
    QCheck_alcotest.to_alcotest qcheck_solver_agrees;
    QCheck_alcotest.to_alcotest qcheck_dimacs_roundtrip;
  ]
