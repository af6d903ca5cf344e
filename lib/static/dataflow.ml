(* A generic forward worklist dataflow engine over a method's basic
   blocks.  A block head is instruction 0, every branch target and every
   instruction after a branch or return; a block runs from its head to
   the next head.  In-states live only at reached heads: the client runs
   a whole block from its head's state (typically in one mutable frame it
   reuses) and the engine joins the block's out-state into the head of
   each successor, copying it on a head's first arrival.  Blocks are taken
   lowest index first, so code without back edges runs each block once.

   The engine allocates nothing per instruction: generated methods run
   to hundreds of instructions, and an array that size goes straight to
   the major heap on every analysis. *)

open Separ_dalvik

type 'a lattice = { copy : 'a -> 'a; join_into : 'a -> 'a -> bool }

(* The first instruction of each block, ascending. *)
let block_starts (m : Ir.meth) =
  let n = Array.length m.Ir.body in
  let heads = ref [ 0 ] in
  for i = 0 to n - 1 do
    if m.Ir.targets.(i) >= 0 then heads := m.Ir.targets.(i) :: !heads;
    match m.Ir.body.(i) with
    | Ir.If_eqz _ | Ir.If_nez _ | Ir.Goto _ | Ir.Return _ ->
        if i + 1 < n then heads := (i + 1) :: !heads
    | _ -> ()
  done;
  Array.of_list (List.sort_uniq Int.compare !heads)

(* The block headed by instruction [j], which is a head. *)
let block_of starts j =
  let rec go lo hi =
    let mid = (lo + hi) / 2 in
    if starts.(mid) = j then mid
    else if starts.(mid) < j then go (mid + 1) hi
    else go lo (mid - 1)
  in
  go 0 (Array.length starts - 1)

let forward (lat : 'a lattice) ~entry ~run (m : Ir.meth) : 'a option array =
  let n = Array.length m.Ir.body in
  let starts = if n = 0 then [||] else block_starts m in
  let nb = Array.length starts in
  let ins = Array.make nb None in
  let dirty = Array.make nb false in
  if nb > 0 then begin
    ins.(0) <- Some (lat.copy entry);
    dirty.(0) <- true
  end;
  (* every dirty block lies at or after [next] *)
  let next = ref 0 in
  while !next < nb do
    let b = !next in
    if not dirty.(b) then incr next
    else begin
      dirty.(b) <- false;
      let start = starts.(b) in
      let stop = if b + 1 < nb then starts.(b + 1) else n in
      let out =
        match ins.(b) with Some s -> run start stop s | None -> assert false
      in
      Cfg.iter_succs m (stop - 1) (fun j ->
          let c = if j = stop then b + 1 else block_of starts j in
          let grew =
            match ins.(c) with
            | None ->
                ins.(c) <- Some (lat.copy out);
                true
            | Some s -> lat.join_into s out
          in
          if grew && not dirty.(c) then begin
            dirty.(c) <- true;
            if c < !next then next := c
          end)
    end
  done;
  ins
