(* Instruction-level control flow of an IR method: successors come from
   the branch targets resolved when the method was built, plus
   reachability with optional edge cuts (used by the permission-guard
   analysis, which asks whether a protected call remains reachable when
   the "granted" branches are removed). *)

open Separ_dalvik

(* A conditional branch is the one non-goto instruction with a target. *)
let iter_succs (m : Ir.meth) i f =
  match m.Ir.body.(i) with
  | Ir.Goto _ -> f m.Ir.targets.(i)
  | Ir.Return _ -> ()
  | _ ->
      if m.Ir.targets.(i) >= 0 then f m.Ir.targets.(i);
      if i + 1 < Array.length m.Ir.body then f (i + 1)

(* Reachable instruction indices from the entry, not traversing edges for
   which [cut] holds ([cut] receives source and destination index). *)
let reachable ?(cut = fun _ _ -> false) (m : Ir.meth) =
  let seen = Array.make (Array.length m.Ir.body) false in
  let rec go i =
    if not seen.(i) then begin
      seen.(i) <- true;
      iter_succs m i (fun j -> if not (cut i j) then go j)
    end
  in
  if Array.length seen > 0 then go 0;
  seen
