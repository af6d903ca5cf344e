(* Minimal-model search and model enumeration over a designated set of
   variables.  This reproduces the role Aluminum plays for SEPAR: instead
   of an arbitrary satisfying instance, the synthesizer works with
   scenarios that are *minimal* in the tuples they include, so derived
   policies are as specific as possible. *)

(* Re-establishing a model that was just satisfiable must succeed: every
   soft variable is assumed at its model value.  A failure means the
   solver state is inconsistent with the caller's expectations — a typed
   error, not an assertion, because budgeted solves made the [Unknown]
   branch of the enclosing search reachable in release builds. *)
exception Reestablish_failed of Solver.result

(* Lexicographic minimal-model search: walk [soft] in the order given,
   preferring false at each position.  The result is the unique
   lexicographically-least model under that preference, which is also
   inclusion-minimal: a model whose true-set were a strict subset would
   beat it at the first variable where they differ.

   The answer depends only on the constraint set, [extra], and the
   [soft] order — never on the solver's search state (learnt clauses,
   activities, saved phases) — so a shared base solver on the
   incremental ASE path produces byte-identical scenarios to a fresh
   one.

   Each round keeps a snapshot of the best model found so far; variables
   the snapshot already assigns false are fixed for free, so the number
   of solver calls is bounded by the number of *true* variables in
   intermediate models, not by |soft|.  No activation literal is needed:
   every candidate is expressed purely through assumptions.

   [budget] bounds the whole search; on exhaustion remaining variables
   are fixed at their snapshot values, degrading to a coarser — possibly
   non-minimal — model instead of failing. *)
let minimize_lex ?(extra = []) ?(budget = Solver.no_budget) solver ~soft =
  let conflicts0 = Solver.n_conflicts solver in
  let t0 = Unix.gettimeofday () in
  let remaining () =
    {
      Solver.b_max_conflicts =
        Option.map
          (fun c -> c - (Solver.n_conflicts solver - conflicts0))
          budget.Solver.b_max_conflicts;
      b_max_time_ms =
        Option.map
          (fun ms -> ms -. ((Unix.gettimeofday () -. t0) *. 1000.0))
          budget.Solver.b_max_time_ms;
    }
  in
  (* Soft variables the solver has never seen are unconstrained (hence
     false in the least model); grow the variable table so the snapshot
     and the final model can record them. *)
  List.iter
    (fun v ->
      while Solver.n_vars solver < v do
        ignore (Solver.new_var solver)
      done)
    soft;
  let snapshot = Hashtbl.create 64 in
  let refresh () =
    List.iter
      (fun v -> Hashtbl.replace snapshot v (Solver.value solver v))
      soft
  in
  refresh ();
  (* Invariant: the snapshot model satisfies [extra] and every literal in
     [fixed] — a false variable is fixed only when the snapshot has it
     false, and a true one only when the snapshot has it true. *)
  let fixed = ref [] (* reversed *) in
  List.iter
    (fun v ->
      if not (Hashtbl.find snapshot v) then fixed := -v :: !fixed
      else
        let assumptions = extra @ List.rev (-v :: !fixed) in
        match Solver.solve ~assumptions ~budget:(remaining ()) solver with
        | Solver.Sat ->
            refresh ();
            fixed := -v :: !fixed
        | Solver.Unsat -> fixed := v :: !fixed
        | Solver.Unknown ->
            (* budget exhausted: keep the snapshot's value *)
            fixed := v :: !fixed)
    soft;
  (* Re-establish the minimum as the current assignment (unbudgeted: the
     snapshot model is a witness, so this is propagation-dominated). *)
  let assumptions = extra @ List.rev !fixed in
  match Solver.solve ~assumptions solver with
  | Solver.Sat -> List.filter (fun v -> Solver.value solver v) soft
  | (Solver.Unsat | Solver.Unknown) as r -> raise (Reestablish_failed r)

(* Permanently exclude every model whose true [soft] set is a superset of
   [trues] (Aluminum-style cone blocking). *)
let block_superset solver ~trues =
  match trues with
  | [] -> Solver.add_clause solver [] |> ignore (* only the empty scenario *)
  | _ -> Solver.add_clause solver (List.map (fun v -> -v) trues)

(* Enumerate up to [limit] minimal models, each given as its true [soft]
   set; successive models are not supersets of earlier ones. *)
let enumerate_minimal ?(limit = max_int) solver ~soft =
  let rec go acc n =
    if n >= limit then List.rev acc
    else
      match Solver.solve solver with
      | Solver.Unsat | Solver.Unknown -> List.rev acc
      | Solver.Sat ->
          let trues = minimize_lex solver ~soft in
          block_superset solver ~trues;
          go (trues :: acc) (n + 1)
  in
  go [] 0
