(** The application package: a manifest plus the IR classes implementing
    its components.  A component's implementation is the class with the
    same name; entry points follow the platform lifecycle conventions. *)

open Separ_android

type t = {
  manifest : Manifest.t;
  classes : Ir.cls list;
}

(** Build and validate a package.
    @raise Failure on malformed IR. *)
val make : manifest:Manifest.t -> classes:Ir.cls list -> t

val package : t -> string
val find_class : t -> string -> Ir.cls option
val component_class : t -> Component.t -> Ir.cls option

(** Lifecycle entry points by component kind; each receives the incoming
    intent in register 0. *)
val entry_methods : Component.kind -> string list

(** [default_entry apk name] is the entry point a launch of component
    [name] runs when none is named: the first of
    [entry_methods kind] that its class defines.  [None] when [name] is
    not a declared component with a class, or the class defines none
    of its kind's entry points. *)
val default_entry : t -> string -> string option

(** Which entry point an ICC mechanism invokes on the target. *)
val entry_for_icc : Api.icc_kind -> string

(** The lifecycle callbacks the framework drives, in order, after the
    given entry point (e.g. onCreate -> onStart -> onResume). *)
val lifecycle_after : string -> string list

(** App size in IR instructions (the Figure 5 size metric). *)
val size : t -> int

(** Re-validate classes and entry-point arities.
    @raise Failure on violations. *)
val validate : t -> unit

val pp : Format.formatter -> t -> unit
