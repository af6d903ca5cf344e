(* The application package: a manifest plus the IR classes implementing
   its components.  A component's implementation is the class with the
   same name; entry points follow the platform lifecycle conventions. *)

open Separ_android

type t = {
  manifest : Manifest.t;
  classes : Ir.cls list;
}

let make ~manifest ~classes = { manifest; classes }

let package t = t.manifest.Manifest.package

let find_class t name =
  List.find_opt (fun c -> c.Ir.cname = name) t.classes

(* The class implementing a declared component, if provided. *)
let component_class t (c : Component.t) = find_class t c.Component.name

(* Lifecycle entry points by component kind.  Each receives the incoming
   intent in register 0. *)
let entry_methods = function
  | Component.Activity ->
      [ "onCreate"; "onStart"; "onResume"; "onPause"; "onStop"; "onDestroy";
        "onActivityResult" ]
  | Component.Service -> [ "onStartCommand"; "onBind"; "onDestroy" ]
  | Component.Receiver -> [ "onReceive" ]
  | Component.Provider -> [ "query"; "insert"; "update"; "delete" ]

(* What a launch of component class [name] runs when no entry is named:
   the first of its kind's entry points that the class defines. *)
let default_entry t name =
  match (Manifest.component t.manifest name, find_class t name) with
  | Some comp, Some cls ->
      List.find_opt
        (fun entry -> Ir.find_method cls entry <> None)
        (entry_methods comp.Component.kind)
  | _ -> None

(* The lifecycle callbacks the framework drives, in order, after the
   primary entry point has run. *)
let lifecycle_after = function
  | "onCreate" -> [ "onStart"; "onResume" ]
  | "onStartCommand" -> []
  | _ -> []

(* Which entry point an ICC kind invokes on the target component. *)
let entry_for_icc (k : Api.icc_kind) =
  match k with
  | Api.Start_activity -> "onCreate"
  | Api.Start_activity_for_result -> "onCreate"
  | Api.Start_service -> "onStartCommand"
  | Api.Bind_service -> "onBind"
  | Api.Send_broadcast -> "onReceive"
  | Api.Set_result -> "onActivityResult"
  | Api.Provider_query -> "query"
  | Api.Provider_insert -> "insert"
  | Api.Provider_update -> "update"
  | Api.Provider_delete -> "delete"
  | Api.Register_receiver -> "onReceive"

(* App size: total instruction count, the size metric of Figure 5. *)
let size t = List.fold_left (fun acc c -> acc + Ir.size_of_class c) 0 t.classes

let validate t =
  (* every component entry point that exists must accept one parameter *)
  List.iter
    (fun (comp : Component.t) ->
      match component_class t comp with
      | None -> ()
      | Some cls ->
          List.iter
            (fun entry ->
              match Ir.find_method cls entry with
              | Some m when m.Ir.n_params < 1 ->
                  failwith
                    (Printf.sprintf
                       "Apk.validate: entry %s.%s must take the intent"
                       cls.Ir.cname entry)
              | _ -> ())
            (entry_methods comp.Component.kind))
    t.manifest.Manifest.components

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@,%a@]" Manifest.pp t.manifest
    Fmt.(list ~sep:cut Ir.pp_class)
    t.classes
