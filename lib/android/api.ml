(* The framework API surface recognised by the analyses: a registry of
   (class, method) pairs classified as sensitive sources, sinks, ICC
   entry points, intent construction helpers or permission checks, plus
   the PScout-style API → permission map.  AME, the taint analysis and
   the simulated runtime all dispatch on this registry, so the three
   layers agree on what each call means. *)

type method_ref = { cls : string; mtd : string }

let mref cls mtd = { cls; mtd }

type icc_kind =
  | Start_activity
  | Start_activity_for_result
  | Start_service
  | Bind_service
  | Send_broadcast
  | Set_result           (* reply to startActivityForResult *)
  | Provider_query
  | Provider_insert
  | Provider_update
  | Provider_delete
  | Register_receiver    (* dynamic broadcast-receiver registration *)

let icc_kind_to_string = function
  | Start_activity -> "startActivity"
  | Start_activity_for_result -> "startActivityForResult"
  | Start_service -> "startService"
  | Bind_service -> "bindService"
  | Send_broadcast -> "sendBroadcast"
  | Set_result -> "setResult"
  | Provider_query -> "query"
  | Provider_insert -> "insert"
  | Provider_update -> "update"
  | Provider_delete -> "delete"
  | Register_receiver -> "registerReceiver"

(* Intent-object manipulation recognised by the extractor. *)
type intent_op =
  | New_intent
  | Set_action
  | Add_category
  | Set_data_type
  | Set_data_scheme
  | Set_class_name       (* explicit target *)
  | Put_extra
  | Get_extra
  | Get_all_extras       (* all extras, concatenated *)
  | Get_intent           (* retrieve the intent that started the component *)

type kind =
  | Source of Resource.t
  | Sink of Resource.t
  | Icc of icc_kind
  | Intent_op of intent_op
  | Permission_check
  | Callback_reg  (* registering a UI event handler by method name *)
  | Broadcast_abort (* consume an ordered broadcast *)
  | Other

(* Class names for the mini framework. *)
let c_context = "android.content.Context"
let c_activity = "android.app.Activity"
let c_intent = "android.content.Intent"
let c_location = "android.location.LocationManager"
let c_telephony = "android.telephony.TelephonyManager"
let c_sms_manager = "android.telephony.SmsManager"
let c_contacts = "android.provider.ContactsReader"
let c_calendar = "android.provider.CalendarReader"
let c_sms_reader = "android.provider.SmsReader"
let c_call_log = "android.provider.CallLogReader"
let c_camera = "android.hardware.Camera"
let c_audio = "android.media.AudioRecord"
let c_accounts = "android.accounts.AccountManager"
let c_browser = "android.provider.Browser"
let c_storage = "android.os.ExternalStorage"
let c_build = "android.os.Build"
let c_http = "java.net.HttpClient"
let c_log = "android.util.Log"
let c_notification = "android.app.NotificationManager"
let c_resolver = "android.content.ContentResolver"
let c_view = "android.view.View"

let sources =
  [
    (mref c_location "getLastKnownLocation", Resource.Location);
    (mref c_telephony "getDeviceId", Resource.Imei);
    (mref c_telephony "getLine1Number", Resource.Phone_number);
    (mref c_contacts "getContacts", Resource.Contacts);
    (mref c_calendar "getEvents", Resource.Calendar);
    (mref c_sms_reader "getInbox", Resource.Sms_inbox);
    (mref c_call_log "getCalls", Resource.Call_log);
    (mref c_camera "takePicture", Resource.Camera_data);
    (mref c_audio "record", Resource.Microphone);
    (mref c_accounts "getAccounts", Resource.Accounts);
    (mref c_browser "getHistory", Resource.Browser_history);
    (mref c_storage "readFile", Resource.Sdcard_data);
    (mref c_build "getSerial", Resource.Device_info);
  ]

let sinks =
  [
    (mref c_sms_manager "sendTextMessage", Resource.Sms);
    (mref c_http "post", Resource.Network);
    (mref c_http "connect", Resource.Network);
    (mref c_storage "writeFile", Resource.Sdcard);
    (mref c_log "i", Resource.Log);
    (mref c_log "d", Resource.Log);
    (mref c_log "e", Resource.Log);
    (mref c_notification "notify", Resource.Display);
  ]

let icc_methods =
  [
    (mref c_context "startActivity", Start_activity);
    (mref c_activity "startActivityForResult", Start_activity_for_result);
    (mref c_context "startService", Start_service);
    (mref c_context "bindService", Bind_service);
    (mref c_context "sendBroadcast", Send_broadcast);
    (mref c_context "sendOrderedBroadcast", Send_broadcast);
    (mref c_activity "setResult", Set_result);
    (mref c_resolver "query", Provider_query);
    (mref c_resolver "insert", Provider_insert);
    (mref c_resolver "update", Provider_update);
    (mref c_resolver "delete", Provider_delete);
    (mref c_context "registerReceiver", Register_receiver);
  ]

let intent_ops =
  [
    (mref c_intent "<init>", New_intent);
    (mref c_intent "setAction", Set_action);
    (mref c_intent "addCategory", Add_category);
    (mref c_intent "setType", Set_data_type);
    (mref c_intent "setData", Set_data_scheme);
    (mref c_intent "setClassName", Set_class_name);
    (mref c_intent "putExtra", Put_extra);
    (mref c_intent "getStringExtra", Get_extra);
    (mref c_intent "getExtras", Get_all_extras);
    (mref c_context "getIntent", Get_intent);
  ]

let callback_registrations = [ mref c_view "setOnClickListener" ]
let broadcast_aborts = [ mref c_context "abortBroadcast" ]

let permission_checks =
  [
    mref c_context "checkCallingPermission";
    mref c_context "enforceCallingPermission";
  ]

let classify (m : method_ref) : kind =
  match List.assoc_opt m sources with
  | Some r -> Source r
  | None -> (
      match List.assoc_opt m sinks with
      | Some r -> Sink r
      | None -> (
          match List.assoc_opt m icc_methods with
          | Some k -> Icc k
          | None -> (
              match List.assoc_opt m intent_ops with
              | Some op -> Intent_op op
              | None ->
                  if List.mem m permission_checks then Permission_check
                  else if List.mem m callback_registrations then Callback_reg
                  else if List.mem m broadcast_aborts then Broadcast_abort
                  else Other)))

(* PScout-style permission map: the permission required to invoke an API
   method, if any. *)
let permission_of (m : method_ref) : Permission.t option =
  match classify m with
  | Source r -> Resource.permission r
  | Sink r -> Resource.permission r
  | _ -> None

(* Whether an app holding [perms] may invoke [m] directly. *)
let allowed perms m =
  match permission_of m with None -> true | Some p -> List.mem p perms

(* Which component kind an ICC mechanism addresses. *)
let delivery_kind (k : icc_kind) : Component.kind =
  match k with
  | Start_activity | Start_activity_for_result | Set_result ->
      Component.Activity
  | Start_service | Bind_service -> Component.Service
  | Send_broadcast | Register_receiver -> Component.Receiver
  | Provider_query | Provider_insert | Provider_update | Provider_delete ->
      Component.Provider

let pp_method ppf m = Fmt.pf ppf "%s#%s" m.cls m.mtd
