(** Sparse boolean matrices: the symbolic value of a relational
    expression under translation.  A matrix of arity [k] over an [n]-atom
    universe maps tuple codes to circuit gates; absent cells are
    constant-false.  The code of a tuple is its mixed-radix number over
    [n] ({!encode}), so its columns are read with [/] and [mod]: the code
    of a unary tuple is its atom. *)

type t

val create : n:int -> arity:int -> t

(** The code of a tuple: [t.(0) * n^(k-1) + ... + t.(k-1)].  Codes of
    one arity sort as the tuples do. *)
val encode : n:int -> int array -> int

(** The gate of a cell, or [default] if the cell is constant-false. *)
val find_or : t -> default:Circuit.gate -> int -> Circuit.gate

(** Set a cell; a constant-false gate removes it. *)
val set : t -> int -> Circuit.gate -> unit

(** The non-false cells, as [(code, gate)], in unspecified order. *)
val iter : (int -> Circuit.gate -> unit) -> t -> unit

val fold : (int -> Circuit.gate -> 'a -> 'a) -> t -> 'a -> 'a
val cell_count : t -> int

(** The relational operators, as in {!Tuple_set}.
    @raise Invalid_argument on arity mismatches. *)

val union : Circuit.t -> t -> t -> t
val inter : Circuit.t -> t -> t -> t
val diff : Circuit.t -> t -> t -> t
val product : Circuit.t -> t -> t -> t
val join : Circuit.t -> t -> t -> t
val transpose : t -> t
val closure : Circuit.t -> t -> t

(** The binary identity and the unary universe, all cells true. *)
val iden : Circuit.t -> n:int -> t

val univ : Circuit.t -> n:int -> t

(** The unary matrix holding exactly one atom. *)
val atom : Circuit.t -> n:int -> int -> t
