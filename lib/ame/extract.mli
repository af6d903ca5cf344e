(** AME: the Android Model Extractor.  Runs the static analyses over each
    component's bytecode and assembles the app's architectural model. *)

open Separ_dalvik

(** Extract one component's model plus its dynamic receiver registrations
    (target class, filter).  [k1] selects one-call-site context
    sensitivity (default); [all_methods] disables entry-point
    reachability pruning (baseline-tool behaviour). *)
val extract_component :
  ?k1:bool ->
  ?all_methods:bool ->
  Apk.t ->
  Separ_android.Component.t ->
  App_model.component_model * (string * Separ_android.Intent_filter.t) list

(** Extract the full app model; records wall-clock extraction time and
    app size for the Figure 5 experiment. *)
val extract : ?k1:bool -> ?all_methods:bool -> Apk.t -> App_model.t
