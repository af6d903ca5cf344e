(** A satisfying instance: a concrete tuple set for every relation. *)

type t

val make : Universe.t -> (Relation.t * Tuple_set.t) list -> t
val universe : t -> Universe.t

(** Value of a relation (empty if unbound). *)
val value : t -> Relation.t -> Tuple_set.t

val relations : t -> Relation.t list

(** Atom names in a unary relation. *)
val atoms_of : t -> Relation.t -> string list

(** The unary image of a named atom under a binary relation. *)
val image : t -> Relation.t -> string -> string list

val pp : Format.formatter -> t -> unit
