(** Hash-consed boolean circuits with constant folding and n-ary AND/OR
    gates, and their Tseitin encoding into the CDCL solver.

    Gates are only made by the constructors below, which keep every node
    normalized:
    - structurally equal gates are one gate (same [id]);
    - constants fold away: no [And]/[Or]/[Not] node has a [True] or
      [False] input, and [Not] never wraps a [Not];
    - an [And]/[Or] node has at least two inputs, sorted by strictly
      increasing [id] (so without duplicates), and never holds both a
      gate and its negation — such a pair folds to the constant.

    Input arrays are shared with the hash-consing tables: read them, never
    write them. *)

type gate = private { id : int; node : node }

and node =
  | True
  | False
  | Lit of int  (** a solver variable, positive *)
  | Not of gate
  | And of gate array
  | Or of gate array

(** A circuit: the hash-consing tables and the id counter. *)
type t

val create : unit -> t
val tt : t -> gate
val ff : t -> gate

(** The gate of solver variable [v >= 1]. *)
val lit : t -> int -> gate

val not_ : t -> gate -> gate
val and_ : t -> gate -> gate -> gate
val or_ : t -> gate -> gate -> gate
val implies : t -> gate -> gate -> gate
val iff : t -> gate -> gate -> gate

(** One gate over all the inputs, in any order and with repeats: the
    same gate as folding them with {!and_} (resp. {!or_}) when there are
    two, [tt] (resp. [ff]) when there are none. *)
val big_and : t -> gate list -> gate

val big_or : t -> gate list -> gate
val is_true : gate -> bool
val is_false : gate -> bool

(** [(hits, misses)] of the hash-consing tables since creation: lookups
    that found an existing gate, and lookups that made a fresh one. *)
val hashcons_counts : t -> int * int

(** Number of distinct gates created so far, constants included. *)
val gate_count : t -> int

(** A Tseitin encoder of one circuit into one solver.  Each gate is
    encoded once, to a literal the encoder remembers; an n-input
    [And]/[Or] costs one fresh variable and n+1 clauses defining it in
    both directions, so the literal is usable in either polarity. *)
type encoder

val encoder : t -> Separ_sat.Solver.t -> encoder

(** The signed solver literal equivalent to the gate, emitting the
    definitions it still lacks. *)
val encode : encoder -> gate -> int

(** Assert a gate as a top-level constraint. *)
val assert_gate : encoder -> gate -> unit

(** Assert a gate only while the literal [guard] is assumed: the one
    assertion clause carries [-guard], while the definitions [encode]
    emits stay unguarded, satisfiable under any assignment of the
    inputs, and shared with every later user of the gate. *)
val assert_gate_under : encoder -> guard:int -> gate -> unit
