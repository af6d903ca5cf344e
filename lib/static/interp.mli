(** The combined whole-component abstract interpreter behind AME.

    For one component, starting from its lifecycle entry points (the
    incoming intent in register 0), this runs an inter-procedural, flow-
    and field-sensitive fixpoint over {!Absval}: string constant
    propagation, intent allocation-site tracking, taint propagation and
    permission-check tracking in a single pass, with optional
    one-call-site context sensitivity (k = 1, the default). *)

open Separ_android
open Separ_dalvik

(** One intent the component can send, with resolved properties. *)
type intent_fact = {
  if_actions : string list option;  (** [None]: statically unresolved *)
  if_categories : string list;
  if_data_types : string list;
  if_data_schemes : string list;
  if_data_hosts : string list;      (** URI authorities *)
  if_targets : string list;
  if_extra_keys : string list;
  if_extra_taints : Resource.t list;
  if_icc : Api.icc_kind;
  if_wants_result : bool;
  if_passive : bool;                (** a [setResult] reply *)
  if_forwards_incoming : bool;      (** re-sends the received intent *)
}

(** One sensitive data-flow path, with the permissions whose dynamic
    checks guard the sink. *)
type path_fact = {
  pf_source : Resource.t;
  pf_sink : Resource.t;
  pf_guards : Permission.t list;
}

type facts = {
  intents : intent_fact list;
  paths : path_fact list;
  uses_permissions : Permission.t list;
  registers_dynamic_receiver : bool;
  dynamic_filters : (string option * string list) list;
      (** (receiver class, actions) of resolvable dynamic registrations *)
  reads_extra_keys : string list;
      (** extra keys read from the incoming intent *)
  analyzed_methods : int;
  fixpoint_rounds : int;  (** rounds of the inter-procedural fixpoint *)
  fixpoint_capped : bool;
      (** the fixpoint stopped at its cap of 100 rounds before
          converging.  Each round reaches one call deeper, so the facts
          of methods deeper than the cap are missing. *)
}

val empty_facts : facts

(** Analyze one component.  [k1] selects one-call-site context
    sensitivity (default true); [all_methods] treats every method of the
    component class as a root — i.e. no entry-point reachability pruning,
    the behaviour of baseline tools. *)
val analyze_component :
  ?k1:bool -> ?all_methods:bool -> Apk.t -> Component.t -> facts
