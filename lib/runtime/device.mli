(** The simulated Android device and APE, the policy enforcer.

    The device installs APKs, resolves and dispatches intents between
    components (including dynamically registered broadcast receivers,
    which the static extractor deliberately does not see), and executes
    component code with an IR interpreter whose API semantics agree with
    the static analyses.

    When enforcement is on, every ICC delivery is routed through a hook
    (the PEP) that builds an event record, consults the in-process PDP
    and applies the verdict: allowed deliveries proceed, denials are
    dropped, prompts go to the user-consent callback.  Refused
    operations are skipped without crashing the caller. *)

open Separ_android
open Separ_dalvik
module Policy = Separ_policy.Policy

type t

val create : ?enforcement:bool -> unit -> t

(** Install an app (appended: later installs win ambiguous implicit
    resolution, the pre-Lollipop behaviour that enables hijack). *)
val install : t -> Apk.t -> unit

(** Load policies and record which packages the analysis covered (the
    [Sender_app_not_installed] condition refers to this set).  The
    store is compiled into the PDP decision structure as part of the
    load. *)
val set_policies : t -> Policy.t list -> string list -> unit

(** Hot policy swap: recompile off to the side, then atomically replace
    the PDP snapshot — no device restart, and no check ever observes a
    half-swapped store (the hook reads the snapshot once per check).
    [?analyzed] defaults to the currently recorded analyzed set.
    Counted in [runtime.policy_swaps]; recompile+replace time observed
    in the [runtime.swap_latency_us] histogram. *)
val swap_policies : ?analyzed:string list -> t -> Policy.t list -> unit

(** How the PEP hook consults the PDP: [Compiled] (default) uses the
    in-process compiled decision structure with single-pass
    send+receive evaluation and zero marshalling; [Reference] is the
    uncompiled single-pass scan (the testing oracle). *)
type pdp_mode = Compiled | Reference

val set_pdp_mode : t -> pdp_mode -> unit

(** The currently loaded store. *)
val policies : t -> Policy.t list

val set_enforcement : t -> bool -> unit

(** The user-prompt callback; the default refuses everything. *)
val set_consent : t -> (Policy.t -> Policy.icc_event -> bool) -> unit

(** Observable effects so far, oldest first. *)
val effects : t -> Effect.t list

val clear_effects : t -> unit
val find_app : t -> string -> Apk.t option
val app_permissions : Apk.t -> Permission.t list

(** Launch a component directly (as if the user opened it), running
    [entry] (default ["onCreate"]) with [intent] (default empty).
    Execution is bounded by an instruction budget and call-depth limit.
    @raise Invalid_argument if the app is not installed. *)
val start_component :
  ?entry:string -> ?intent:Intent.t -> t -> pkg:string -> component:string -> unit

(** Simulate a user tap: run every click handler the component has
    registered (via [View#setOnClickListener]).
    @raise Invalid_argument if the app is not installed. *)
val click : t -> pkg:string -> component:string -> unit

(** Inject an intent from outside any installed app (adb-style). *)
val inject_intent :
  ?icc:Api.icc_kind ->
  ?sender_app:string ->
  ?sender_perms:Permission.t list ->
  t ->
  Intent.t ->
  unit
