(** A generic forward worklist dataflow engine over an IR method's basic
    blocks.  A block head is instruction 0, every branch target and every
    instruction after a branch or return; successors are read with
    {!Cfg.iter_succs} from a block's last instruction.  In-states are
    kept only at block heads, so a state is copied only where control
    enters a block; inside a block the client runs in whatever frame it
    likes.  Blocks are taken lowest index first. *)

(** Head states are mutable: [copy s] is a fresh head state equal to [s];
    [join_into h s] joins [s] into the head state [h] in place and says
    whether [h] grew. *)
type 'a lattice = { copy : 'a -> 'a; join_into : 'a -> 'a -> bool }

(** [forward lat ~entry ~run m] iterates to a fixpoint and returns the
    in-state of each block, numbered in instruction order, [None] for a
    block never reached.  [entry] is copied into block 0.  [run start stop s]
    executes instructions [start .. stop - 1] from the head state [s],
    which it must not mutate, and returns the out-state; the engine reads
    that only until the next [run]. *)
val forward :
  'a lattice ->
  entry:'a ->
  run:(int -> int -> 'a -> 'a) ->
  Separ_dalvik.Ir.meth ->
  'a option array
