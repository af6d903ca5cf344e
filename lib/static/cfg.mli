(** Instruction-level control flow of an IR method, read straight from
    the branch targets {!Separ_dalvik.Ir.make_method} resolved: no graph
    is built.  Reachability takes optional edge cuts (the
    permission-guard analysis asks whether a protected call survives
    removing "granted" edges). *)

open Separ_dalvik

(** [iter_succs m i f] applies [f] to each successor of instruction [i]:
    a branch's target first, then its fall-through. *)
val iter_succs : Ir.meth -> int -> (int -> unit) -> unit

(** Reachable instructions from entry, skipping edges for which [cut src
    dst] holds. *)
val reachable : ?cut:(int -> int -> bool) -> Ir.meth -> bool array
