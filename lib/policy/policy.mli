(** Event-condition-action security policies: the output of the synthesis
    pipeline, the input of the runtime enforcer.  The paper's §VI example

    {v { event: ICC received,
        condition: [{Intent.extra: LOCATION}, {Intent.receiver: MessageSender}],
        action: user prompt } v}

    is [{ p_event = Icc_receive;
          p_conditions = [Extras_include Location; Receiver_is "MessageSender"];
          p_action = Prompt; _ }]. *)

open Separ_android

type event_kind = Icc_send | Icc_receive

type condition =
  | Receiver_is of string
  | Receiver_not_in of string list  (** receiver outside the known set *)
  | Sender_is of string
  | Sender_app_not_installed
      (** sender app absent from the analyzed bundle *)
  | Action_is of string
  | Implicit  (** the intent names no explicit target *)
  | Extras_include of Resource.t
  | Sender_lacks_permission of Permission.t

type action = Allow | Deny | Prompt

type t = {
  p_id : string;
  p_event : event_kind;
  p_conditions : condition list;  (** conjunction *)
  p_action : action;
  p_reason : string;  (** the vulnerability this guards against *)
}

(** The runtime context of an ICC delivery, as seen by the PEP. *)
type icc_event = {
  ev_kind : event_kind;
  ev_sender_component : string;
  ev_sender_app : string;
  ev_sender_installed_at_analysis : bool;
  ev_sender_permissions : Permission.t list;
  ev_intent : Intent.t;
  ev_receiver_component : string;
  ev_receiver_app : string;
}

(** The per-check view of an event: extras tainted resources as
    a bitset, sender permissions as a hash set, the intent action and
    implicitness pulled out — built once per check with
    {!view_of_event} and shared across every policy evaluated against
    the event.  Conditions never consult [ev_kind], so one view answers
    for both the send- and receive-side reading of a delivery.  The
    record is read-only ([private]): build one with {!view_of_event}. *)
type view = private {
  vw_ev : icc_event;
  vw_action : string option;  (** [ev_intent.action] *)
  vw_implicit : bool;
  vw_extras_bits : int;  (** bitset over [Resource.index] of tainted extras *)
  vw_perms : (Permission.t, unit) Hashtbl.t;  (** sender's permissions *)
}

val view_of_event : icc_event -> view
val condition_holds : icc_event -> condition -> bool
val condition_holds_view : view -> condition -> bool

(** PDP verdict: the most restrictive action among matching policies
    (Deny > Prompt > Allow), with the deciding policy. *)
type decision = Allowed | Prompted of t | Denied of t

val decide : t list -> icc_event -> decision
val decide_view : t list -> view -> decision

(** Receive- and send-side rules evaluated in one pass over the store:
    the event's own kind decides first (Deny, then Prompt); only if it
    allows do the flipped-kind rules apply.  Equivalent to [decide]
    followed by [decide] on the kind-flipped event, at one scan and one
    view.  The runtime hook's [Reference] mode calls this. *)
val decide_both : t list -> icc_event -> decision

val decide_both_view : t list -> view -> decision

(** {1 Serialization} *)

val event_to_string : event_kind -> string
val event_of_string : string -> event_kind
val action_to_string : action -> string
val action_of_string : string -> action
val condition_to_string : condition -> string
val condition_of_string : string -> condition

(** One policy per line. *)
val to_line : t -> string

val of_line : string -> t
val to_string : t list -> string
val of_string : string -> t list

val pp : Format.formatter -> t -> unit
