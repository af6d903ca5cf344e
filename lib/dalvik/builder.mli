(** A DSL for emitting IR method bodies.  Code written against this
    builder reads close to the Java of the paper's listings while
    producing honest register-level IR that the analyses must work to
    understand.  Most emitters allocate and return the result register. *)

open Separ_android

type t

val create : ?params:int -> unit -> t
val emit : t -> Ir.instr -> unit
val fresh_reg : t -> Ir.reg
val fresh_label : t -> Ir.label

(** {1 Basic instructions} *)

val const_str : t -> string -> Ir.reg
val const_int : t -> int -> Ir.reg
val move : t -> dst:Ir.reg -> src:Ir.reg -> unit
val move_to_fresh : t -> Ir.reg -> Ir.reg
val iput : t -> obj:Ir.reg -> field:string -> src:Ir.reg -> unit
val iget : t -> obj:Ir.reg -> field:string -> Ir.reg
val sput : t -> field:string -> src:Ir.reg -> unit
val sget : t -> field:string -> Ir.reg
val new_array : t -> size:Ir.reg -> Ir.reg
val aput : t -> src:Ir.reg -> arr:Ir.reg -> idx:Ir.reg -> unit
val aget : t -> arr:Ir.reg -> idx:Ir.reg -> Ir.reg
val invoke : t -> ?kind:Ir.invoke_kind -> Api.method_ref -> Ir.reg list -> unit

(** Invoke followed by move-result into a fresh register. *)
val invoke_result :
  t -> ?kind:Ir.invoke_kind -> Api.method_ref -> Ir.reg list -> Ir.reg

val if_eqz : t -> Ir.reg -> Ir.label -> unit
val if_nez : t -> Ir.reg -> Ir.label -> unit
val goto : t -> Ir.label -> unit
val place_label : t -> Ir.label -> unit
val return_void : t -> unit
val return_reg : t -> Ir.reg -> unit
val nop : t -> unit

(** {1 Framework helpers} *)

(** Invoke the source API producing the given resource. *)
val source_call : t -> Resource.t -> Ir.reg

val get_location : t -> Ir.reg
val get_device_id : t -> Ir.reg
val send_text_message : t -> number:Ir.reg -> body:Ir.reg -> unit
val write_log : t -> payload:Ir.reg -> unit

(** {1 Intents} *)

val new_intent : t -> Ir.reg
val set_action : t -> Ir.reg -> string -> unit
val add_category : t -> Ir.reg -> string -> unit
val set_data_type : t -> Ir.reg -> string -> unit
val set_data_scheme : t -> Ir.reg -> string -> unit

(** setData with a full URI: "scheme://host". *)
val set_data_uri : t -> Ir.reg -> string -> unit
val set_class_name : t -> Ir.reg -> string -> unit
val put_extra : t -> Ir.reg -> key:string -> value:Ir.reg -> unit
val get_string_extra : t -> Ir.reg -> key:string -> Ir.reg
val get_all_extras : t -> Ir.reg -> Ir.reg
val start_activity : t -> Ir.reg -> unit
val start_activity_for_result : t -> Ir.reg -> unit
val start_service : t -> Ir.reg -> unit
val bind_service : t -> Ir.reg -> unit
val send_broadcast : t -> Ir.reg -> unit

(** Consume the ordered broadcast being handled. *)
val abort_broadcast : t -> unit
val set_result : t -> Ir.reg -> unit
val provider_op : t -> Api.icc_kind -> Ir.reg -> unit
val register_receiver : t -> Ir.reg -> unit

(** Register a method of the current class as a UI click handler. *)
val set_on_click_listener : t -> handler:string -> unit

(** Returns 1 in the result register iff the calling app holds the
    permission. *)
val check_calling_permission : t -> Permission.t -> Ir.reg

(** {1 App-internal calls (static dispatch by class and name)} *)

val call : t -> cls:string -> name:string -> Ir.reg list -> unit
val call_result : t -> cls:string -> name:string -> Ir.reg list -> Ir.reg

(** {1 Assembly} *)

(** Finish the body into a method (see {!Ir.make_method}).
    @raise Failure on malformed IR. *)
val finish : t -> name:string -> Ir.meth

(** A method whose body is built by [f]; appends a return if the body
    does not end in one. *)
val meth : name:string -> ?params:int -> (t -> unit) -> Ir.meth

val cls : name:string -> Ir.meth list -> Ir.cls
