(** The abstract value domain of the combined analysis: each register and
    heap cell simultaneously tracks possible string constants (with a top
    element), intent/array allocation sites, whether it may be the
    component's incoming intent, its taint set, and the permission checks
    whose result it may hold.  All facets join by union; the product is a
    finite-height lattice. *)

module SS : Set.S with type elt = string

module RS : Set.S with type elt = Separ_android.Resource.t

module IS : Set.S with type elt = int

(** Cap on tracked string sets before collapsing to top. *)
val max_strings : int

type t = {
  strs : SS.t;
  str_top : bool;
  sites : IS.t;
  incoming : bool;
  taints : RS.t;
  perm_checks : SS.t;
}

val bot : t
val of_string : string -> t
val str_top : t
val of_site : int -> t
val incoming_intent : t
val of_taints : Separ_android.Resource.t list -> t
val of_perm_check : string -> t
val join : t -> t -> t
val equal : t -> t -> bool

(** Resolved strings; [None] when statically unknown. *)
val strings : t -> string list option

val taint_list : t -> Separ_android.Resource.t list
