(* Instruction-level control-flow graph of an IR method: successor lists
   over instruction indices, plus reachability with optional edge cuts
   (used by the permission-guard analysis, which asks whether a protected
   call remains reachable when the "granted" branches are removed). *)

open Separ_dalvik

type t = {
  meth : Ir.meth;
  succs : int list array;
}

let successors_of (m : Ir.meth) =
  let labels = Ir.label_table m in
  let n = Array.length m.Ir.body in
  Array.init n (fun i ->
      match m.Ir.body.(i) with
      | Ir.Goto l -> [ Hashtbl.find labels l ]
      | Ir.If_eqz (_, l) | Ir.If_nez (_, l) ->
          let fall = if i + 1 < n then [ i + 1 ] else [] in
          Hashtbl.find labels l :: fall
      | Ir.Return _ -> []
      | _ -> if i + 1 < n then [ i + 1 ] else [])

let make meth = { meth; succs = successors_of meth }

let n_instrs t = Array.length t.meth.Ir.body
let instr t i = t.meth.Ir.body.(i)
let succs t i = t.succs.(i)

(* Reachable instruction indices from the entry, not traversing edges for
   which [cut] holds ([cut] receives source and destination index). *)
let reachable ?(cut = fun _ _ -> false) t =
  let n = n_instrs t in
  let seen = Array.make n false in
  let rec go i =
    if i < n && not seen.(i) then begin
      seen.(i) <- true;
      List.iter (fun j -> if not (cut i j) then go j) t.succs.(i)
    end
  in
  if n > 0 then go 0;
  seen
