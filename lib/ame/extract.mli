(** AME: the Android Model Extractor.  Runs the static analyses over each
    component's bytecode and assembles the app's architectural model. *)

open Separ_dalvik

(** Extract the full app model; records wall-clock extraction time and
    app size for the Figure 5 experiment. *)
val extract : ?k1:bool -> ?all_methods:bool -> Apk.t -> App_model.t
