(* Sparse boolean matrices: the symbolic value of a relational expression
   under translation.  A matrix maps tuple codes to circuit gates; absent
   entries are constant-false.  All relational operators are implemented
   here, on codes: the code of a k-tuple is its mixed-radix number over
   the universe size [n], so [code / n^j] and [code mod n^j] split it into
   its first [k - j] and last [j] columns. *)

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = {
  arity : int;
  n : int;                    (* universe size *)
  cells : Circuit.gate Tbl.t; (* only non-false entries *)
}

let create ~n ~arity = { arity; n; cells = Tbl.create 16 }

let encode ~n tuple = Array.fold_left (fun acc a -> (acc * n) + a) 0 tuple

let rec pow n k = if k = 0 then 1 else n * pow n (k - 1)

let find_or m ~default code =
  match Tbl.find_opt m.cells code with Some g -> g | None -> default

let set m code g =
  if Circuit.is_false g then Tbl.remove m.cells code
  else Tbl.replace m.cells code g

(* Accumulate [g] into cell [code] with disjunction. *)
let add_or c m code g =
  if not (Circuit.is_false g) then
    match Tbl.find_opt m.cells code with
    | None -> Tbl.replace m.cells code g
    | Some g0 -> Tbl.replace m.cells code (Circuit.or_ c g0 g)

let iter f m = Tbl.iter f m.cells
let fold f m acc = Tbl.fold f m.cells acc
let cell_count m = Tbl.length m.cells

let union c a b =
  if a.arity <> b.arity then invalid_arg "Matrix.union";
  let m = create ~n:a.n ~arity:a.arity in
  iter (add_or c m) a;
  iter (add_or c m) b;
  m

let inter c a b =
  if a.arity <> b.arity then invalid_arg "Matrix.inter";
  let m = create ~n:a.n ~arity:a.arity in
  iter
    (fun code g ->
      match Tbl.find_opt b.cells code with
      | Some g' -> set m code (Circuit.and_ c g g')
      | None -> ())
    a;
  m

let diff c a b =
  if a.arity <> b.arity then invalid_arg "Matrix.diff";
  let m = create ~n:a.n ~arity:a.arity in
  iter
    (fun code g ->
      match Tbl.find_opt b.cells code with
      | Some g' -> set m code (Circuit.and_ c g (Circuit.not_ c g'))
      | None -> set m code g)
    a;
  m

let product c a b =
  let m = create ~n:a.n ~arity:(a.arity + b.arity) in
  let shift = pow a.n b.arity in
  iter
    (fun ca ga ->
      iter (fun cb gb -> set m ((ca * shift) + cb) (Circuit.and_ c ga gb)) b)
    a;
  m

(* Join, indexed on the first column of [b] to avoid the quadratic scan:
   a cell of [a] splits into its head ([code / n]) and last column
   ([code mod n]), a cell of [b] into its first column and its rest
   ([code / r] and [code mod r], [r = n^(arity b - 1)]), and the output
   code is [head * r + rest].  Each output cell is one disjunction over
   all its witnesses. *)
let join c a b =
  let out_arity = a.arity + b.arity - 2 in
  if out_arity < 1 then invalid_arg "Matrix.join: result arity 0";
  let n = a.n in
  let r = pow n (b.arity - 1) in
  let index : (int * Circuit.gate) list Tbl.t = Tbl.create 64 in
  iter
    (fun cb gb ->
      let k = cb / r in
      let prev = Option.value ~default:[] (Tbl.find_opt index k) in
      Tbl.replace index k ((cb mod r, gb) :: prev))
    b;
  let witnesses : Circuit.gate list Tbl.t = Tbl.create 16 in
  iter
    (fun ca ga ->
      match Tbl.find_opt index (ca mod n) with
      | None -> ()
      | Some entries ->
          let base = (ca / n) * r in
          List.iter
            (fun (rest, gb) ->
              let key = base + rest in
              let prev =
                Option.value ~default:[] (Tbl.find_opt witnesses key)
              in
              Tbl.replace witnesses key (Circuit.and_ c ga gb :: prev))
            entries)
    a;
  let m = create ~n ~arity:out_arity in
  Tbl.iter (fun key gs -> set m key (Circuit.big_or c gs)) witnesses;
  m

let transpose a =
  if a.arity <> 2 then invalid_arg "Matrix.transpose";
  let n = a.n in
  let m = create ~n ~arity:2 in
  iter (fun code g -> set m (((code mod n) * n) + (code / n)) g) a;
  m

let equal_cells a b =
  cell_count a = cell_count b
  && Tbl.fold
       (fun code g acc ->
         acc
         && match Tbl.find_opt b.cells code with
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
    set m ((i * n) + i) (Circuit.tt c)
  done;
  m

let univ c ~n =
  let m = create ~n ~arity:1 in
  for i = 0 to n - 1 do
    set m i (Circuit.tt c)
  done;
  m

(* The unary matrix holding exactly atom [a]. *)
let atom c ~n a =
  let m = create ~n ~arity:1 in
  set m a (Circuit.tt c);
  m
