(** Instruction-level control-flow graph of an IR method, with
    reachability under optional edge cuts (the permission-guard analysis
    asks whether a protected call survives removing "granted" edges). *)

open Separ_dalvik

type t = { meth : Ir.meth; succs : int list array }

val successors_of : Ir.meth -> int list array
val make : Ir.meth -> t
val n_instrs : t -> int
val instr : t -> int -> Ir.instr
val succs : t -> int -> int list

(** Reachable instructions from entry, skipping edges for which [cut src
    dst] holds. *)
val reachable : ?cut:(int -> int -> bool) -> t -> bool array
