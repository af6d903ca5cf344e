(** The framework API surface recognised by the analyses: (class, method)
    pairs classified as sources, sinks, ICC entry points, intent
    construction helpers, permission checks or callback registrations,
    plus the PScout-style API → permission map.  AME, the taint analysis
    and the simulated runtime all dispatch on this registry, so the three
    layers agree on what each call means. *)

type method_ref = { cls : string; mtd : string }

val mref : string -> string -> method_ref

type icc_kind =
  | Start_activity
  | Start_activity_for_result
  | Start_service
  | Bind_service
  | Send_broadcast
  | Set_result            (** reply to startActivityForResult *)
  | Provider_query
  | Provider_insert
  | Provider_update
  | Provider_delete
  | Register_receiver     (** dynamic broadcast-receiver registration *)

val icc_kind_to_string : icc_kind -> string

type intent_op =
  | New_intent
  | Set_action
  | Add_category
  | Set_data_type
  | Set_data_scheme
  | Set_class_name
  | Put_extra
  | Get_extra
  | Get_all_extras
  | Get_intent

type kind =
  | Source of Resource.t
  | Sink of Resource.t
  | Icc of icc_kind
  | Intent_op of intent_op
  | Permission_check
  | Callback_reg  (** registering a UI event handler by method name *)
  | Broadcast_abort  (** consume an ordered broadcast *)
  | Other

(** {1 Framework class names} *)

val c_context : string
val c_activity : string
val c_intent : string
val c_location : string
val c_telephony : string
val c_sms_manager : string
val c_contacts : string
val c_calendar : string
val c_sms_reader : string
val c_call_log : string
val c_camera : string
val c_audio : string
val c_accounts : string
val c_browser : string
val c_storage : string
val c_build : string
val c_http : string
val c_log : string
val c_notification : string
val c_resolver : string
val c_view : string

(** {1 The registry} *)

val sources : (method_ref * Resource.t) list
val sinks : (method_ref * Resource.t) list
val icc_methods : (method_ref * icc_kind) list
val intent_ops : (method_ref * intent_op) list
val permission_checks : method_ref list
val callback_registrations : method_ref list
val broadcast_aborts : method_ref list

val classify : method_ref -> kind

(** The permission required to invoke the API, if any. *)
val permission_of : method_ref -> Permission.t option

(** Whether an app holding [perms] may invoke the API directly. *)
val allowed : Permission.t list -> method_ref -> bool

(** Which component kind an ICC mechanism addresses. *)
val delivery_kind : icc_kind -> Component.kind
val pp_method : Format.formatter -> method_ref -> unit
