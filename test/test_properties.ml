(* Property-based tests of core algebraic laws, via qcheck: the tuple-set
   algebra (the semantic foundation of the relational engine), intent
   matching monotonicity, and the abstract-value lattice. *)

open Separ_relog

let ts_gen n arity =
  let tuple_gen =
    QCheck.Gen.array_size (QCheck.Gen.return arity) (QCheck.Gen.int_range 0 (n - 1))
  in
  QCheck.Gen.map
    (fun tuples -> Tuple_set.of_list arity tuples)
    (QCheck.Gen.list_size (QCheck.Gen.int_range 0 8) tuple_gen)

let binary = QCheck.make (ts_gen 4 2)
let unary = QCheck.make (ts_gen 4 1)

let t name gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:200 gen f)

let transpose_involution =
  t "transpose is an involution" binary (fun r ->
      Tuple_set.equal (Tuple_set.transpose (Tuple_set.transpose r)) r)

let closure_idempotent =
  t "closure is idempotent" binary (fun r ->
      let c = Tuple_set.closure r in
      Tuple_set.equal (Tuple_set.closure c) c)

let closure_contains =
  t "closure contains the relation" binary (fun r ->
      Tuple_set.subset r (Tuple_set.closure r))

let join_iden_identity =
  t "join with identity is identity" binary (fun r ->
      Tuple_set.equal (Tuple_set.join r (Tuple_set.iden 4)) r)

let union_commutative =
  t "union commutes" (QCheck.pair binary binary) (fun (a, b) ->
      Tuple_set.equal (Tuple_set.union a b) (Tuple_set.union b a))

let inter_absorption =
  t "a & (a + b) = a" (QCheck.pair binary binary) (fun (a, b) ->
      Tuple_set.equal (Tuple_set.inter a (Tuple_set.union a b)) a)

let diff_disjoint =
  t "(a - b) & b = empty" (QCheck.pair binary binary) (fun (a, b) ->
      Tuple_set.is_empty (Tuple_set.inter (Tuple_set.diff a b) b))

let join_distributes_union =
  t "x.(a + b) = x.a + x.b" (QCheck.triple unary binary binary)
    (fun (x, a, b) ->
      Tuple_set.equal
        (Tuple_set.join x (Tuple_set.union a b))
        (Tuple_set.union (Tuple_set.join x a) (Tuple_set.join x b)))

let product_size =
  t "|a -> b| = |a| * |b|" (QCheck.pair unary unary) (fun (a, b) ->
      Tuple_set.size (Tuple_set.product a b) = Tuple_set.size a * Tuple_set.size b)

(* --- ground evaluator vs tuple-set algebra ------------------------------------- *)

let eval_consistent_with_algebra =
  t "Eval agrees with tuple-set algebra on closures"
    binary
    (fun r ->
      let u = Universe.of_atoms [ "a0"; "a1"; "a2"; "a3" ] in
      let rel = Relation.make "R" 2 in
      let inst = Instance.make u [ (rel, r) ] in
      let via_eval = Eval.expr inst [] (Ast.Closure (Ast.Rel rel)) in
      Tuple_set.equal via_eval (Tuple_set.closure r))

(* --- intent matching monotonicity ------------------------------------------------ *)

open Separ_android

let action_gen = QCheck.Gen.oneofl [ "a1"; "a2"; "a3" ]
let actions_gen = QCheck.Gen.list_size (QCheck.Gen.int_range 0 3) action_gen

let filter_monotone_in_actions =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"adding filter actions never breaks a match"
       ~count:300
       (QCheck.make
          (QCheck.Gen.triple action_gen actions_gen action_gen))
       (fun (action, filter_actions, extra_action) ->
         let i = Intent.make ~action () in
         let f = Intent_filter.make ~actions:filter_actions () in
         let f' = Intent_filter.make ~actions:(extra_action :: filter_actions) () in
         (not (Intent_filter.matches ~intent:i f))
         || Intent_filter.matches ~intent:i f'))

let filter_antitone_in_categories =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"adding intent categories never creates a match" ~count:300
       (QCheck.make (QCheck.Gen.pair actions_gen actions_gen))
       (fun (cats, filter_cats) ->
         let f = Intent_filter.make ~actions:[ "a" ] ~categories:filter_cats () in
         let i = Intent.make ~action:"a" ~categories:cats () in
         let i' = Intent.make ~action:"a" ~categories:("extra" :: cats) () in
         (not (Intent_filter.matches ~intent:i' f))
         || Intent_filter.matches ~intent:i f))

(* --- abstract-value lattice -------------------------------------------------------- *)

module Absval = Separ_static.Absval

(* Up to 10 strings drawn from 12, so joins cross [Absval.max_strings] and
   overflow to [str_top]; every facet (top, sites, incoming, taints,
   permission checks) is drawn, so the laws also cover the [==] fast
   paths and the overflow. *)
let absval_gen =
  let open QCheck.Gen in
  let strings = List.init 12 (Printf.sprintf "s%d") in
  map
    (fun ((strs, top, sites), (incoming, taints, perms)) ->
      List.fold_left Absval.join Absval.bot
        (List.map Absval.of_string strs
        @ (if top then [ Absval.str_top ] else [])
        @ List.map Absval.of_site sites
        @ (if incoming then [ Absval.incoming_intent ] else [])
        @ [ Absval.of_taints taints ]
        @ List.map Absval.of_perm_check perms))
    (pair
       (triple
          (list_size (int_range 0 10) (oneofl strings))
          bool
          (list_size (int_range 0 3) (int_range 0 5)))
       (triple bool
          (oneofl [ []; [ Resource.Imei ]; [ Resource.Location; Resource.Sms ] ])
          (list_size (int_range 0 2)
             (oneofl [ Permission.send_sms; Permission.access_fine_location ]))))

let absval = QCheck.make absval_gen

let absval_join_idempotent =
  t "absval join idempotent" absval (fun v -> Absval.equal (Absval.join v v) v)

let absval_join_commutative =
  t "absval join commutes" (QCheck.pair absval absval) (fun (a, b) ->
      Absval.equal (Absval.join a b) (Absval.join b a))

let absval_join_associative =
  t "absval join associates" (QCheck.triple absval absval absval)
    (fun (a, b, c) ->
      Absval.equal
        (Absval.join a (Absval.join b c))
        (Absval.join (Absval.join a b) c))

let absval_bot_identity =
  t "absval bot is identity" absval (fun v ->
      Absval.equal (Absval.join Absval.bot v) v)

let tests =
  [
    transpose_involution;
    closure_idempotent;
    closure_contains;
    join_iden_identity;
    union_commutative;
    inter_absorption;
    diff_disjoint;
    join_distributes_union;
    product_size;
    eval_consistent_with_algebra;
    filter_monotone_in_actions;
    filter_antitone_in_categories;
    absval_join_idempotent;
    absval_join_commutative;
    absval_join_associative;
    absval_bot_identity;
  ]
