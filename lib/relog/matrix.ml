(* Sparse boolean matrices: the symbolic value of a relational expression
   under translation.  A matrix maps tuples (encoded as single integers in
   mixed radix over the universe size) to circuit gates; absent entries
   are constant-false.  All relational operators are implemented here. *)

type t = {
  arity : int;
  n : int;                                (* universe size *)
  cells : (int, Circuit.gate) Hashtbl.t;  (* only non-false entries *)
}

let create ~n ~arity = { arity; n; cells = Hashtbl.create 16 }

let encode ~n tuple =
  Array.fold_left (fun acc a -> (acc * n) + a) 0 tuple

let decode ~n ~arity code =
  let t = Array.make arity 0 in
  let rec go i code =
    if i >= 0 then begin
      t.(i) <- code mod n;
      go (i - 1) (code / n)
    end
  in
  go (arity - 1) code;
  t

let get m tuple =
  match Hashtbl.find_opt m.cells (encode ~n:m.n tuple) with
  | Some g -> g
  | None -> raise Not_found

let get_or m ~default tuple =
  match Hashtbl.find_opt m.cells (encode ~n:m.n tuple) with
  | Some g -> g
  | None -> default

let set c m tuple g =
  if Circuit.is_false g then
    Hashtbl.remove m.cells (encode ~n:m.n tuple)
  else Hashtbl.replace m.cells (encode ~n:m.n tuple) g;
  ignore c

(* Accumulate [g] into cell [tuple] with disjunction. *)
let add_or c m tuple g =
  if not (Circuit.is_false g) then begin
    let key = encode ~n:m.n tuple in
    match Hashtbl.find_opt m.cells key with
    | None -> Hashtbl.replace m.cells key g
    | Some g0 -> Hashtbl.replace m.cells key (Circuit.or_ c g0 g)
  end

let iter f m =
  Hashtbl.iter
    (fun code g -> f (decode ~n:m.n ~arity:m.arity code) g)
    m.cells

let fold f m acc =
  Hashtbl.fold
    (fun code g acc -> f (decode ~n:m.n ~arity:m.arity code) g acc)
    m.cells acc

let cell_count m = Hashtbl.length m.cells

let of_tuple_set c ~n ts =
  let m = create ~n ~arity:(Tuple_set.arity ts) in
  Tuple_set.iter (fun tup -> set c m tup (Circuit.tt c)) ts;
  m

let union c a b =
  if a.arity <> b.arity then invalid_arg "Matrix.union";
  let m = create ~n:a.n ~arity:a.arity in
  iter (fun t g -> add_or c m t g) a;
  iter (fun t g -> add_or c m t g) b;
  m

let inter c a b =
  if a.arity <> b.arity then invalid_arg "Matrix.inter";
  let m = create ~n:a.n ~arity:a.arity in
  iter
    (fun t g ->
      match Hashtbl.find_opt b.cells (encode ~n:b.n t) with
      | Some g' -> set c m t (Circuit.and_ c g g')
      | None -> ())
    a;
  m

let diff c a b =
  if a.arity <> b.arity then invalid_arg "Matrix.diff";
  let m = create ~n:a.n ~arity:a.arity in
  iter
    (fun t g ->
      match Hashtbl.find_opt b.cells (encode ~n:b.n t) with
      | Some g' -> set c m t (Circuit.and_ c g (Circuit.not_ c g'))
      | None -> set c m t g)
    a;
  m

let product c a b =
  let m = create ~n:a.n ~arity:(a.arity + b.arity) in
  iter
    (fun ta ga ->
      iter
        (fun tb gb ->
          set c m (Array.append ta tb) (Circuit.and_ c ga gb))
        b)
    a;
  m

(* Join, indexed on the first column of [b] to avoid the quadratic scan.
   Each output cell is one disjunction over all its witnesses. *)
let join c a b =
  let out_arity = a.arity + b.arity - 2 in
  if out_arity < 1 then invalid_arg "Matrix.join: result arity 0";
  let index : (int, (int array * Circuit.gate) list) Hashtbl.t =
    Hashtbl.create 64
  in
  iter
    (fun tb gb ->
      let k = tb.(0) in
      let rest = Array.sub tb 1 (b.arity - 1) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt index k) in
      Hashtbl.replace index k ((rest, gb) :: prev))
    b;
  let witnesses : (int, Circuit.gate list) Hashtbl.t = Hashtbl.create 16 in
  iter
    (fun ta ga ->
      let last = ta.(a.arity - 1) in
      let head = Array.sub ta 0 (a.arity - 1) in
      match Hashtbl.find_opt index last with
      | None -> ()
      | Some entries ->
          List.iter
            (fun (rest, gb) ->
              let key = encode ~n:a.n (Array.append head rest) in
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt witnesses key)
              in
              Hashtbl.replace witnesses key (Circuit.and_ c ga gb :: prev))
            entries)
    a;
  let m = create ~n:a.n ~arity:out_arity in
  Hashtbl.iter
    (fun key gs ->
      let g = Circuit.big_or c gs in
      if not (Circuit.is_false g) then Hashtbl.replace m.cells key g)
    witnesses;
  m

let transpose c a =
  if a.arity <> 2 then invalid_arg "Matrix.transpose";
  let m = create ~n:a.n ~arity:2 in
  iter (fun t g -> set c m [| t.(1); t.(0) |] g) a;
  m

let equal_cells a b =
  cell_count a = cell_count b
  && Hashtbl.fold
       (fun code g acc ->
         acc
         && match Hashtbl.find_opt b.cells code with
            | Some g' -> g.Circuit.id = g'.Circuit.id
            | None -> false)
       a.cells true

(* Transitive closure by iterative squaring; terminates because the
   universe is finite and gates are hash-consed (fixpoint detected by
   structural equality of the sparse matrices). *)
let closure c a =
  if a.arity <> 2 then invalid_arg "Matrix.closure";
  let rec fix r steps =
    if steps > a.n + 1 then r
    else
      let r2 = union c r (join c r r) in
      if equal_cells r r2 then r else fix r2 (steps * 2)
  in
  fix a 1

let iden c ~n =
  let m = create ~n ~arity:2 in
  for i = 0 to n - 1 do
    set c m [| i; i |] (Circuit.tt c)
  done;
  m

let univ c ~n =
  let m = create ~n ~arity:1 in
  for i = 0 to n - 1 do
    set c m [| i |] (Circuit.tt c)
  done;
  m

let singleton c ~n tuple =
  let m = create ~n ~arity:(Array.length tuple) in
  set c m tuple (Circuit.tt c);
  m
