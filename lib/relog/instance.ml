(* A satisfying instance: a concrete tuple set for every relation. *)

type t = {
  universe : Universe.t;
  map : Tuple_set.t Relation.Map.t;
}

let make universe bindings =
  {
    universe;
    map =
      List.fold_left
        (fun m (r, ts) -> Relation.Map.add r ts m)
        Relation.Map.empty bindings;
  }

let universe t = t.universe

let value t rel =
  match Relation.Map.find_opt rel t.map with
  | Some ts -> ts
  | None -> Tuple_set.empty (Relation.arity rel)

let relations t = List.map fst (Relation.Map.bindings t.map)

(* Atoms (names) in a unary relation. *)
let atoms_of t rel =
  Tuple_set.to_list (value t rel)
  |> List.map (fun tup -> Universe.name t.universe tup.(0))

(* The unary image of [atom] under binary relation [rel]: atom.rel *)
let image t rel atom_name =
  let a = Universe.atom t.universe atom_name in
  Tuple_set.to_list (value t rel)
  |> List.filter_map (fun tup ->
         if tup.(0) = a then Some (Universe.name t.universe tup.(1))
         else None)

let pp ppf t =
  Relation.Map.iter
    (fun r ts ->
      Fmt.pf ppf "%s = %a@." (Relation.name r)
        (Tuple_set.pp (Universe.name t.universe))
        ts)
    t.map
