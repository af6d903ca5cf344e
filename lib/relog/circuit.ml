(* Hash-consed boolean circuits with constant folding and n-ary AND/OR
   gates, in the style of Kodkod.  The translation from relational logic
   builds a circuit; {!encoder} then performs a Tseitin encoding into the
   CDCL solver.  Hash-consing and the local simplifications keep the
   encoding close to what a careful hand translation would produce:
   entries fixed by exact bounds fold away to constants and only
   genuinely unknown tuples reach the solver.

   An [And]/[Or] node holds at least two inputs, sorted by id, without
   duplicates and without a complementary pair.  The translation builds
   each conjunction or disjunction it folds (quantifiers, subset tests,
   join cells) as one such gate from the list of its inputs, where binary
   gates would build a left-deep chain. *)

type gate = { id : int; node : node }

and node =
  | True
  | False
  | Lit of int          (* a solver variable, positive *)
  | Not of gate
  | And of gate array
  | Or of gate array

(* Two-input gates are keyed by their packed input ids; ids stay below
   [2^31] (checked when a gate is made), so the packing is exact. *)
module Pair_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* Wider gates are keyed by their input arrays: the inputs are
   hash-consed, so physical equality and ids identify them exactly. *)
module Wide_tbl = Hashtbl.Make (struct
  type t = gate array

  let equal a b =
    Array.length a = Array.length b && Array.for_all2 ( == ) a b

  let hash a =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h * 65599) + a.(i).id
    done;
    Hashtbl.hash !h
end)

let max_id = 1 lsl 31

(* A placeholder in the by-id and by-variable tables below. *)
let absent = { id = -1; node = False }

(* The two n-ary kinds, as data: [unit] is the input a gate ignores,
   [zero] the input (or complementary pair) that decides it. *)
type kind = {
  is_and : bool;
  pair : gate Pair_tbl.t;  (* two-input gates *)
  wide : gate Wide_tbl.t;  (* the wider ones *)
  unit : gate;
  zero : gate;
}

type t = {
  mutable lits : gate array;     (* by solver variable *)
  mutable nots : gate array;     (* by id of the negated gate *)
  ands : kind;
  ors : kind;
  mutable next_id : int;
  true_g : gate;
  mutable hc_hits : int;   (* hash-cons lookups answered from a table *)
  mutable hc_misses : int; (* lookups that built a fresh gate *)
}

let create () =
  let true_g = { id = 0; node = True } and false_g = { id = 1; node = False } in
  let kind is_and unit zero =
    { is_and; pair = Pair_tbl.create 1024; wide = Wide_tbl.create 256; unit;
      zero }
  in
  {
    lits = [||];
    nots = [||];
    ands = kind true true_g false_g;
    ors = kind false false_g true_g;
    next_id = 2;
    true_g;
    hc_hits = 0;
    hc_misses = 0;
  }

let tt t = t.true_g
let ff t = t.ands.zero

(* (hits, misses) of the hash-consing tables since creation. *)
let hashcons_counts t = (t.hc_hits, t.hc_misses)

(* Number of distinct gates created so far (translation size metric). *)
let gate_count t = t.next_id

let fresh t node =
  if t.next_id >= max_id then failwith "Circuit: too many gates";
  t.hc_misses <- t.hc_misses + 1;
  let g = { id = t.next_id; node } in
  t.next_id <- t.next_id + 1;
  g

let hit t g =
  t.hc_hits <- t.hc_hits + 1;
  g

(* [a] with room for index [i], new slots [fill]. *)
let ensure a i fill =
  if i < Array.length a then a
  else begin
    let a' = Array.make (max (i + 1) (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let lit t v =
  if v < 1 then invalid_arg "Circuit.lit: non-positive variable";
  t.lits <- ensure t.lits v absent;
  let g = t.lits.(v) in
  if g != absent then hit t g
  else begin
    let g = fresh t (Lit v) in
    t.lits.(v) <- g;
    g
  end

let not_ t g =
  match g.node with
  | True -> ff t
  | False -> t.true_g
  | Not g' -> g'
  | _ ->
      t.nots <- ensure t.nots g.id absent;
      let n = t.nots.(g.id) in
      if n != absent then hit t n
      else begin
        let n = fresh t (Not g) in
        t.nots.(g.id) <- n;
        n
      end

(* Does the sorted, duplicate-free [ins] hold the complement of one of
   its members?  A [Not g] member always has a larger id than [g]. *)
let has_complement ins =
  let n = Array.length ins in
  let rec mem id lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let m = ins.(mid).id in
    m = id || if m < id then mem id (mid + 1) hi else mem id lo mid
  in
  let rec go i =
    i < n
    && ((match ins.(i).node with Not g -> mem g.id 0 i | _ -> false)
       || go (i + 1))
  in
  go 0

let make k t ins = fresh t (if k.is_and then And ins else Or ins)

(* A two-input gate over [a], [b] with [a.id < b.id]. *)
let intern_pair k t a b =
  let key = (a.id lsl 31) lor b.id in
  match Pair_tbl.find_opt k.pair key with
  | Some g -> hit t g
  | None ->
      let g = make k t [| a; b |] in
      Pair_tbl.add k.pair key g;
      g

let intern k t ins =
  match Array.length ins with
  | 0 -> k.unit
  | 1 -> ins.(0)
  | 2 -> intern_pair k t ins.(0) ins.(1)
  | _ -> (
      match Wide_tbl.find_opt k.wide ins with
      | Some g -> hit t g
      | None ->
          let g = make k t ins in
          Wide_tbl.add k.wide ins g;
          g)

(* Normalize and intern: drop units, sort by id, deduplicate, and fold
   to [zero] on a [zero] input or a complementary pair. *)
let build k t gs =
  if List.exists (fun g -> g.id = k.zero.id) gs then k.zero
  else
    let ins =
      Array.of_list
        (List.sort_uniq
           (fun a b -> Int.compare a.id b.id)
           (List.filter (fun g -> g.id <> k.unit.id) gs))
    in
    if has_complement ins then k.zero else intern k t ins

let big_and t gs = build t.ands t gs
let big_or t gs = build t.ors t gs

let negates a b = match a.node with Not x -> x == b | _ -> false

(* The binary constructors answer the common cases before building. *)
let binary k t a b =
  if a.id = k.zero.id || b.id = k.zero.id then k.zero
  else if a.id = k.unit.id then b
  else if b.id = k.unit.id || a == b then a
  else if negates a b || negates b a then k.zero
  else if a.id < b.id then intern_pair k t a b
  else intern_pair k t b a

let and_ t a b = binary t.ands t a b
let or_ t a b = binary t.ors t a b
let implies t a b = or_ t (not_ t a) b
let iff t a b = and_ t (implies t a b) (implies t b a)

let is_true g = g.node = True
let is_false g = g.node = False

(* Tseitin encoding.  [lit_of] maps gate ids to the signed solver
   literal equivalent to the gate (0 = not encoded yet) across calls, for
   incremental use.  An n-input gate costs one variable and n+1
   clauses. *)
type encoder = {
  circuit : t;
  solver : Separ_sat.Solver.t;
  mutable lit_of : int array;
}

let encoder circuit solver = { circuit; solver; lit_of = Array.make 1024 0 }

let rec encode enc g =
  enc.lit_of <- ensure enc.lit_of g.id 0;
  let l = enc.lit_of.(g.id) in
  if l <> 0 then l
  else begin
    let s = enc.solver in
    let l =
      match g.node with
      | True ->
          let v = Separ_sat.Solver.new_var s in
          Separ_sat.Solver.add_clause_arr s [| v |];
          v
      | False -> -encode enc enc.circuit.true_g
      | Lit v -> v
      | Not a -> -encode enc a
      | And ins | Or ins ->
          (* And: v -> each input, all inputs -> v.  Or is its dual. *)
          let sign = match g.node with And _ -> 1 | _ -> -1 in
          let ls = Array.map (encode enc) ins in
          let v = Separ_sat.Solver.new_var s in
          let sv = sign * v in
          Array.iter
            (fun l -> Separ_sat.Solver.add_clause_arr s [| -sv; sign * l |])
            ls;
          let big = Array.make (Array.length ls + 1) sv in
          Array.iteri (fun i l -> big.(i + 1) <- -sign * l) ls;
          Separ_sat.Solver.add_clause_arr s big;
          v
    in
    enc.lit_of.(g.id) <- l;
    l
  end

(* Assert a gate as a top-level constraint. *)
let assert_gate enc g =
  match g.node with
  | True -> ()
  | False -> Separ_sat.Solver.add_clause enc.solver []
  | _ -> Separ_sat.Solver.add_clause_arr enc.solver [| encode enc g |]

(* Assert a gate guarded by an activation literal: the constraint holds
   only while [guard] is assumed.  Tseitin definitions emitted by
   [encode] stay unguarded — they merely define fresh variables and are
   satisfiable under any assignment of the inputs — so only the top-level
   assertion clause carries the guard, and gate encodings remain shared
   between guarded and unguarded users. *)
let assert_gate_under enc ~guard g =
  match g.node with
  | True -> ()
  | False -> Separ_sat.Solver.add_clause_arr enc.solver [| -guard |]
  | _ -> Separ_sat.Solver.add_clause_arr enc.solver [| -guard; encode enc g |]
