(* Event-condition-action security policies, the output of the synthesis
   pipeline and the input of the runtime enforcer.  A policy matches ICC
   events (intent deliveries observed by the PEP hooks); when every
   condition holds, the policy's action applies.  The paper's §VI example

     { event: ICC received,
       condition: [{Intent.extra: LOCATION}, {Intent.receiver: MessageSender}],
       action: user prompt }

   corresponds to [{ p_event = Icc_receive;
                     p_conditions = [Extras_include Location;
                                     Receiver_is "MessageSender"];
                     p_action = Prompt }]. *)

open Separ_android

type event_kind = Icc_send | Icc_receive

type condition =
  | Receiver_is of string
  | Receiver_not_in of string list  (* receiver outside the known set *)
  | Sender_is of string
  | Sender_app_not_installed        (* sender app absent from the analyzed bundle *)
  | Action_is of string
  | Implicit                        (* the intent names no explicit target *)
  | Extras_include of Resource.t
  | Sender_lacks_permission of Permission.t

type action = Allow | Deny | Prompt

type t = {
  p_id : string;
  p_event : event_kind;
  p_conditions : condition list; (* conjunction *)
  p_action : action;
  p_reason : string;             (* the vulnerability this guards against *)
}

(* The runtime context of an ICC delivery, as seen by the PEP. *)
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

(* --- event views ----------------------------------------------------------- *)

(* The per-check view of an event: the pieces a condition needs
   to consult, turned into O(1)-lookup form once and then shared across
   every policy evaluated against the event.  Without this, each
   [Extras_include] re-walks (and re-sorts) the intent's extras and each
   [Sender_lacks_permission] re-scans the permission list — per
   condition, per policy, per check. *)
type view = {
  vw_ev : icc_event;
  vw_action : string option;           (* ev_intent.action *)
  vw_implicit : bool;
  vw_extras_bits : int;                (* bitset over [Resource.index] *)
  vw_perms : (Permission.t, unit) Hashtbl.t;  (* sender's permissions *)
}

let view_of_event (ev : icc_event) : view =
  let bits =
    List.fold_left
      (fun acc (e : Intent.extra) ->
        List.fold_left (fun acc r -> acc lor (1 lsl Resource.index r)) acc e.Intent.taint)
      0 ev.ev_intent.Intent.extras
  in
  let perms = Hashtbl.create (max 4 (List.length ev.ev_sender_permissions)) in
  List.iter (fun p -> Hashtbl.replace perms p ()) ev.ev_sender_permissions;
  {
    vw_ev = ev;
    vw_action = ev.ev_intent.Intent.action;
    vw_implicit = Intent.is_implicit ev.ev_intent;
    vw_extras_bits = bits;
    vw_perms = perms;
  }

(* Conditions never consult [ev_kind], so one view answers for both the
   send- and receive-side reading of the same delivery. *)
let condition_holds_view (vw : view) = function
  | Receiver_is c -> vw.vw_ev.ev_receiver_component = c
  | Receiver_not_in cs -> not (List.mem vw.vw_ev.ev_receiver_component cs)
  | Sender_is c -> vw.vw_ev.ev_sender_component = c
  | Sender_app_not_installed -> not vw.vw_ev.ev_sender_installed_at_analysis
  | Action_is a -> (
      match vw.vw_action with Some a' -> String.equal a a' | None -> false)
  | Implicit -> vw.vw_implicit
  | Extras_include r -> vw.vw_extras_bits land (1 lsl Resource.index r) <> 0
  | Sender_lacks_permission p -> not (Hashtbl.mem vw.vw_perms p)

let condition_holds (ev : icc_event) = function
  | Receiver_is c -> ev.ev_receiver_component = c
  | Receiver_not_in cs -> not (List.mem ev.ev_receiver_component cs)
  | Sender_is c -> ev.ev_sender_component = c
  | Sender_app_not_installed -> not ev.ev_sender_installed_at_analysis
  | Action_is a -> ev.ev_intent.Intent.action = Some a
  | Implicit -> Intent.is_implicit ev.ev_intent
  | Extras_include r -> List.mem r (Intent.carried_resources ev.ev_intent)
  | Sender_lacks_permission p -> not (List.mem p ev.ev_sender_permissions)

(* PDP decision: the most restrictive action among matching policies
   (Deny > Prompt > Allow), with the deciding policy. *)
type decision = Allowed | Prompted of t | Denied of t

(* One pass over the store, in store order, sharing [vw] across every
   policy: the first matching Deny wins immediately; otherwise the first
   matching Prompt; Allow policies never decide and are skipped without
   evaluating their conditions.  Output-identical to filtering the whole
   store and then searching it (the original formulation). *)
let decide_view (policies : t list) (vw : view) : decision =
  let kind = vw.vw_ev.ev_kind in
  let rec scan prompt = function
    | [] -> ( match prompt with Some p -> Prompted p | None -> Allowed)
    | p :: rest -> (
        match p.p_action with
        | Allow -> scan prompt rest
        | Deny | Prompt ->
            if
              p.p_event = kind
              && List.for_all (condition_holds_view vw) p.p_conditions
            then
              if p.p_action = Deny then Denied p
              else scan (if prompt = None then Some p else prompt) rest
            else scan prompt rest)
  in
  scan None policies

let decide (policies : t list) (ev : icc_event) : decision =
  decide_view policies (view_of_event ev)

(* Evaluate the receive- and send-side rules in ONE pass over the store.
   Resolution order replicates the sequential protocol (decide on the
   event's own kind; only if Allowed, decide again with the kind
   flipped): primary-kind Deny > primary Prompt > flipped Deny > flipped
   Prompt.  Conditions never read [ev_kind], so each policy's condition
   vector is evaluated at most once per check. *)
let decide_both_view (policies : t list) (vw : view) : decision =
  let primary = vw.vw_ev.ev_kind in
  let rec scan p_prompt o_deny o_prompt = function
    | [] -> (
        match (p_prompt, o_deny, o_prompt) with
        | Some p, _, _ -> Prompted p
        | None, Some p, _ -> Denied p
        | None, None, Some p -> Prompted p
        | None, None, None -> Allowed)
    | p :: rest -> (
        match p.p_action with
        | Allow -> scan p_prompt o_deny o_prompt rest
        | Deny | Prompt ->
            if List.for_all (condition_holds_view vw) p.p_conditions then
              match (p.p_event = primary, p.p_action) with
              | true, Deny -> Denied p
              | true, _ ->
                  scan (if p_prompt = None then Some p else p_prompt)
                    o_deny o_prompt rest
              | false, Deny ->
                  scan p_prompt (if o_deny = None then Some p else o_deny)
                    o_prompt rest
              | false, _ ->
                  scan p_prompt o_deny
                    (if o_prompt = None then Some p else o_prompt)
                    rest
            else scan p_prompt o_deny o_prompt rest)
  in
  scan None None None policies

let decide_both (policies : t list) (ev : icc_event) : decision =
  decide_both_view policies (view_of_event ev)

(* --- serialization ------------------------------------------------------- *)

let event_to_string = function
  | Icc_send -> "ICC_send"
  | Icc_receive -> "ICC_received"

let event_of_string = function
  | "ICC_send" -> Icc_send
  | "ICC_received" -> Icc_receive
  | s -> failwith ("Policy.event_of_string: " ^ s)

let action_to_string = function
  | Allow -> "allow"
  | Deny -> "deny"
  | Prompt -> "user_prompt"

let action_of_string = function
  | "allow" -> Allow
  | "deny" -> Deny
  | "user_prompt" -> Prompt
  | s -> failwith ("Policy.action_of_string: " ^ s)

let condition_to_string = function
  | Receiver_is c -> "Intent.receiver=" ^ c
  | Receiver_not_in cs -> "Intent.receiver_not_in=" ^ String.concat "|" cs
  | Sender_is c -> "Intent.sender=" ^ c
  | Sender_app_not_installed -> "Sender.app_not_installed"
  | Action_is a -> "Intent.action=" ^ a
  | Implicit -> "Intent.implicit"
  | Extras_include r -> "Intent.extra=" ^ Resource.to_string r
  | Sender_lacks_permission p -> "Sender.lacks_permission=" ^ p

let condition_of_string s =
  let split_kv s =
    match String.index_opt s '=' with
    | Some i ->
        ( String.sub s 0 i,
          String.sub s (i + 1) (String.length s - i - 1) )
    | None -> (s, "")
  in
  match split_kv s with
  | "Intent.receiver", v -> Receiver_is v
  | "Intent.receiver_not_in", v ->
      Receiver_not_in (String.split_on_char '|' v |> List.filter (( <> ) ""))
  | "Intent.sender", v -> Sender_is v
  | "Sender.app_not_installed", _ -> Sender_app_not_installed
  | "Intent.action", v -> Action_is v
  | "Intent.implicit", _ -> Implicit
  | "Intent.extra", v -> (
      match Resource.of_string v with
      | Some r -> Extras_include r
      | None -> failwith ("Policy.condition_of_string: bad resource " ^ v))
  | "Sender.lacks_permission", v -> Sender_lacks_permission v
  | k, _ -> failwith ("Policy.condition_of_string: " ^ k)

(* One policy per line: id \t event \t action \t reason \t cond;cond;... *)
let to_line p =
  String.concat "\t"
    [
      p.p_id;
      event_to_string p.p_event;
      action_to_string p.p_action;
      p.p_reason;
      String.concat ";" (List.map condition_to_string p.p_conditions);
    ]

let of_line line =
  match String.split_on_char '\t' line with
  | [ id; ev; act; reason; conds ] ->
      {
        p_id = id;
        p_event = event_of_string ev;
        p_action = action_of_string act;
        p_reason = reason;
        p_conditions =
          (if conds = "" then []
           else
             String.split_on_char ';' conds |> List.map condition_of_string);
      }
  | _ -> failwith "Policy.of_line: malformed line"

let to_string policies = String.concat "\n" (List.map to_line policies)

let of_string s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map of_line

let pp ppf p =
  Fmt.pf ppf "@[<v 2>{ event: %s,@,condition: [%a],@,action: %s }@]"
    (event_to_string p.p_event)
    Fmt.(list ~sep:(any ", ") (fun ppf c -> string ppf (condition_to_string c)))
    p.p_conditions
    (action_to_string p.p_action)
