(** A generic forward worklist dataflow engine over an IR method's
    instruction-level control flow ({!Cfg.iter_succs}).  Returns the
    state *before* each instruction. *)

type 'a lattice = {
  bot : 'a;
  join : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
}

(** [forward lat ~entry ~transfer m]: [entry] is the state before
    instruction 0; [transfer i instr s] the state after executing
    [instr] at index [i] in state [s]. *)
val forward :
  'a lattice ->
  entry:'a ->
  transfer:(int -> Separ_dalvik.Ir.instr -> 'a -> 'a) ->
  Separ_dalvik.Ir.meth ->
  'a array
