(** Intents: Android's application-level messages.  Extra values carry a
    taint set — the sensitive resources their contents derive from —
    which both the analysis and the enforcement layer reason about. *)

type extra = {
  key : string;
  value : string;
  taint : Resource.t list;
}

type t = {
  target : string option;       (** explicit target component class *)
  action : string option;
  categories : string list;
  data_type : string option;    (** MIME type *)
  data_scheme : string option;  (** URI scheme *)
  data_host : string option;    (** URI authority; requires a scheme *)
  extras : extra list;
  wants_result : bool;          (** sent via startActivityForResult *)
}

val make :
  ?target:string ->
  ?action:string ->
  ?categories:string list ->
  ?data_type:string ->
  ?data_scheme:string ->
  ?data_host:string ->
  ?extras:extra list ->
  ?wants_result:bool ->
  unit ->
  t

(** Parse a data URI "scheme://host[/...]" into (scheme, host); a bare
    token is a scheme with no host. *)
val split_uri : string -> string * string option

val empty : t
val is_implicit : t -> bool
val put_extra : t -> key:string -> value:string -> taint:Resource.t list -> t

(** All resources carried by the intent's extras, deduplicated. *)
val carried_resources : t -> Resource.t list

val pp : Format.formatter -> t -> unit
