(* A small DSL for emitting IR method bodies.  Code written against this
   builder reads close to the Java of the paper's listings while producing
   honest register-level IR that the analyses must work to understand. *)

open Separ_android

type t = {
  mutable instrs : Ir.instr list; (* reversed *)
  mutable next_reg : int;
  mutable next_label : int;
  n_params : int;
}

let create ?(params = 0) () =
  { instrs = []; next_reg = params; next_label = 0; n_params = params }

let emit b i = b.instrs <- i :: b.instrs

let fresh_reg b =
  let r = b.next_reg in
  b.next_reg <- r + 1;
  r

let fresh_label b =
  let l = Printf.sprintf "L%d" b.next_label in
  b.next_label <- b.next_label + 1;
  l

(* --- basic instructions ------------------------------------------------ *)

let const_str b s =
  let r = fresh_reg b in
  emit b (Ir.Const (r, Ir.Cstr s));
  r

let const_int b n =
  let r = fresh_reg b in
  emit b (Ir.Const (r, Ir.Cint n));
  r

let move b ~dst ~src = emit b (Ir.Move (dst, src))

let move_to_fresh b src =
  let r = fresh_reg b in
  emit b (Ir.Move (r, src));
  r

let iput b ~obj ~field ~src = emit b (Ir.Iput (src, obj, field))

let iget b ~obj ~field =
  let r = fresh_reg b in
  emit b (Ir.Iget (r, obj, field));
  r

let sput b ~field ~src = emit b (Ir.Sput (src, field))

let sget b ~field =
  let r = fresh_reg b in
  emit b (Ir.Sget (r, field));
  r

let new_array b ~size =
  let r = fresh_reg b in
  emit b (Ir.New_array (r, size));
  r

let aput b ~src ~arr ~idx = emit b (Ir.Aput (src, arr, idx))

let aget b ~arr ~idx =
  let r = fresh_reg b in
  emit b (Ir.Aget (r, arr, idx));
  r

let invoke b ?(kind = Ir.Virtual) mref args = emit b (Ir.Invoke (kind, mref, args))

let invoke_result b ?(kind = Ir.Virtual) mref args =
  invoke b ~kind mref args;
  let r = fresh_reg b in
  emit b (Ir.Move_result r);
  r

let if_eqz b r label = emit b (Ir.If_eqz (r, label))
let if_nez b r label = emit b (Ir.If_nez (r, label))
let goto b label = emit b (Ir.Goto label)
let place_label b label = emit b (Ir.Label label)
let return_void b = emit b (Ir.Return None)
let return_reg b r = emit b (Ir.Return (Some r))
let nop b = emit b Ir.Nop

(* --- framework helpers -------------------------------------------------- *)

let source_call b resource =
  let m =
    List.find (fun (_, r) -> r = resource) Api.sources |> fst
  in
  invoke_result b m []

let get_location b = source_call b Resource.Location
let get_device_id b = source_call b Resource.Imei

let send_text_message b ~number ~body =
  invoke b (Api.mref Api.c_sms_manager "sendTextMessage") [ number; body ]

let write_log b ~payload = invoke b (Api.mref Api.c_log "i") [ payload ]

(* --- intents ------------------------------------------------------------ *)

let new_intent b =
  let r = fresh_reg b in
  emit b (Ir.New_instance (r, Api.c_intent));
  invoke b (Api.mref Api.c_intent "<init>") [ r ];
  r

let set_action b intent action =
  let a = const_str b action in
  invoke b (Api.mref Api.c_intent "setAction") [ intent; a ]

let add_category b intent category =
  let c = const_str b category in
  invoke b (Api.mref Api.c_intent "addCategory") [ intent; c ]

let set_data_type b intent ty =
  let t = const_str b ty in
  invoke b (Api.mref Api.c_intent "setType") [ intent; t ]

let set_data_scheme b intent scheme =
  let s = const_str b scheme in
  invoke b (Api.mref Api.c_intent "setData") [ intent; s ]

(* setData with a full URI: "scheme://host" *)
let set_data_uri = set_data_scheme

let set_class_name b intent cls =
  let c = const_str b cls in
  invoke b (Api.mref Api.c_intent "setClassName") [ intent; c ]

let put_extra b intent ~key ~value =
  let k = const_str b key in
  invoke b (Api.mref Api.c_intent "putExtra") [ intent; k; value ]

let get_string_extra b intent ~key =
  let k = const_str b key in
  invoke_result b (Api.mref Api.c_intent "getStringExtra") [ intent; k ]

let get_all_extras b intent =
  invoke_result b (Api.mref Api.c_intent "getExtras") [ intent ]

let start_activity b intent =
  invoke b (Api.mref Api.c_context "startActivity") [ intent ]

let start_activity_for_result b intent =
  invoke b (Api.mref Api.c_activity "startActivityForResult") [ intent ]

let start_service b intent =
  invoke b (Api.mref Api.c_context "startService") [ intent ]

let bind_service b intent =
  invoke b (Api.mref Api.c_context "bindService") [ intent ]

let send_broadcast b intent =
  invoke b (Api.mref Api.c_context "sendBroadcast") [ intent ]

let abort_broadcast b =
  invoke b (Api.mref Api.c_context "abortBroadcast") []

let set_result b intent =
  invoke b (Api.mref Api.c_activity "setResult") [ intent ]

let provider_op b (op : Api.icc_kind) intent =
  let name =
    match op with
    | Api.Provider_query -> "query"
    | Api.Provider_insert -> "insert"
    | Api.Provider_update -> "update"
    | Api.Provider_delete -> "delete"
    | _ -> invalid_arg "Builder.provider_op"
  in
  invoke b (Api.mref Api.c_resolver name) [ intent ]

let register_receiver b intent =
  (* dynamic receiver registration; the "intent" argument carries the
     filter description at runtime *)
  invoke b (Api.mref Api.c_context "registerReceiver") [ intent ]

(* Register a method of this class as a UI click handler. *)
let set_on_click_listener b ~handler =
  let h = const_str b handler in
  invoke b (Api.mref Api.c_view "setOnClickListener") [ h ]

let check_calling_permission b perm =
  let p = const_str b perm in
  invoke_result b (Api.mref Api.c_context "checkCallingPermission") [ p ]

(* Call a method of this app (static dispatch by class+name). *)
let call b ~cls ~name args =
  invoke b ~kind:Ir.Static (Api.mref cls name) args

let call_result b ~cls ~name args =
  invoke_result b ~kind:Ir.Static (Api.mref cls name) args

(* --- assembly ----------------------------------------------------------- *)

let finish b ~name =
  Ir.make_method ~name ~n_params:b.n_params ~n_regs:(max b.next_reg 1)
    (Array.of_list (List.rev b.instrs))

(* Convenience: a method whose body is built by [f]. *)
let meth ~name ?(params = 0) f =
  let b = create ~params () in
  f b;
  (* implicit return for bodies that do not end in one *)
  (match b.instrs with
  | Ir.Return _ :: _ -> ()
  | _ -> return_void b);
  finish b ~name

let cls ~name methods = Ir.{ cname = name; methods }
