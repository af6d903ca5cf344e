(* AME: the Android Model Extractor.

   Architecture extraction reads the manifest (components, permissions,
   filters, public surface); intent, path and permission extraction run
   the static analyses of {!Separ_static.Interp} over the component's
   bytecode; the facts are assembled into an {!App_model.t}.

   Where the analysis resolves a property to several values (e.g. a
   conditionally assigned action), one intent model is emitted per value,
   as each contributes a distinct event message — the paper's multi-value
   expansion.  Sensitive paths whose sink is dynamically guarded by the
   very permission that protects the sink resource are reported as
   code-enforced permissions of the component rather than as open paths. *)

open Separ_android
open Separ_dalvik
module Interp = Separ_static.Interp
module Trace = Separ_obs.Trace
module Metrics = Separ_obs.Metrics
module Log = Separ_obs.Log

let expansion_cap = 16

(* Expand one intent fact into concrete intent models: cartesian product
   over multi-valued action / data type / data scheme / target, capped. *)
let expand_fact ~pkg ~cmp idx (f : Interp.intent_fact) : App_model.intent_model list
    =
  let options_of unresolved = function
    | [] -> [ None ]
    | vs -> List.map (fun v -> Some v) vs @ if unresolved then [ None ] else []
  in
  let actions =
    match f.Interp.if_actions with
    | None -> [ None ] (* unresolved: single wildcard entity *)
    | Some vs -> options_of false (List.sort_uniq compare vs)
  in
  let actions = match actions with [] -> [ None ] | a -> a in
  let types = options_of false f.Interp.if_data_types in
  let schemes = options_of false f.Interp.if_data_schemes in
  let hosts =
    match f.Interp.if_data_hosts with [] -> [ None ] | hs -> List.map Option.some hs
  in
  let targets =
    match f.Interp.if_targets with [] -> [ None ] | ts -> List.map Option.some ts
  in
  let combos =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun ty ->
            List.concat_map
              (fun sch ->
                List.concat_map
                  (fun h -> List.map (fun tg -> (a, ty, sch, h, tg)) targets)
                  hosts)
              schemes)
          types)
      actions
  in
  let combos =
    if List.length combos > expansion_cap then
      List.filteri (fun i _ -> i < expansion_cap) combos
    else combos
  in
  List.mapi
    (fun j (action, ty, scheme, host, target) ->
      {
        App_model.im_id = Printf.sprintf "%s/%s/intent%d_%d" pkg cmp idx j;
        im_sender = cmp;
        im_target = target;
        im_action = action;
        im_action_unresolved = f.Interp.if_actions = None;
        im_categories = f.Interp.if_categories;
        im_data_type = ty;
        im_data_scheme = scheme;
        im_data_host = (if scheme = None then None else host);
        im_extras = f.Interp.if_extra_taints;
        im_icc = f.Interp.if_icc;
        im_wants_result = f.Interp.if_wants_result;
        im_passive = f.Interp.if_passive;
        im_resolved_targets = [];
      })
    combos

(* Paths: keep open paths; convert correctly-guarded sinks into enforced
   permissions. *)
let split_paths (facts : Interp.facts) =
  List.fold_left
    (fun (open_paths, enforced) (p : Interp.path_fact) ->
      let sink_perm = Resource.permission p.Interp.pf_sink in
      match sink_perm with
      | Some perm when List.mem perm p.Interp.pf_guards ->
          (open_paths, perm :: enforced)
      | _ ->
          ( App_model.{ pm_source = p.Interp.pf_source; pm_sink = p.Interp.pf_sink }
            :: open_paths,
            enforced ))
    ([], []) facts.Interp.paths

let c_fixpoint_capped = Metrics.counter "ame.fixpoint_capped"

(* Returns the component model, the dynamic receiver registrations its
   code performs (target class, filter), and the rounds its fixpoint
   took.  A fixpoint stopped by the round cap is counted and logged: the
   model then lacks the facts of the deepest methods. *)
let component_model ~k1 ~all_methods (apk : Apk.t) (comp : Component.t) =
  let facts = Interp.analyze_component ~k1 ~all_methods apk comp in
  let pkg = Apk.package apk in
  if facts.Interp.fixpoint_capped then begin
    Metrics.incr c_fixpoint_capped;
    Log.warn "ame.fixpoint_capped"
      ~fields:
        [
          ("package", Trace.Str pkg);
          ("component", Trace.Str comp.Component.name);
          ("rounds", Trace.Int facts.Interp.fixpoint_rounds);
        ]
  end;
  let open_paths, enforced = split_paths facts in
  let intents =
    List.concat
      (List.mapi
         (fun idx f -> expand_fact ~pkg ~cmp:comp.Component.name idx f)
         facts.Interp.intents)
  in
  let required =
    List.sort_uniq compare
      ((match comp.Component.permission with Some p -> [ p ] | None -> [])
      @ enforced)
  in
  ( {
    App_model.cm_name = comp.Component.name;
    cm_kind = comp.Component.kind;
    cm_public = Component.is_public comp;
    cm_filters = comp.Component.intent_filters;
    cm_required_permissions = required;
    cm_uses_permissions =
      List.filter
        (fun p -> Manifest.has_permission apk.Apk.manifest p)
        facts.Interp.uses_permissions;
    cm_paths = List.rev open_paths;
    cm_intents = intents;
    cm_reads_extras = facts.Interp.reads_extra_keys;
    cm_dynamic_filters = [];
    },
    List.map
      (fun (target, actions) ->
        ( Option.value ~default:comp.Component.name target,
          Intent_filter.make ~actions () ))
      facts.Interp.dynamic_filters,
    facts.Interp.fixpoint_rounds )

let c_apps = Metrics.counter "ame.apps_extracted"
let c_components = Metrics.counter "ame.components_extracted"
let c_intents = Metrics.counter "ame.intent_models"
let h_extract_ms = Metrics.histogram "ame.extraction_ms"

(* Extract the full app model; records wall-clock time and app size for
   the Figure 5 experiment.  Each app gets one [ame.extract] span whose
   attributes carry the Figure-5 coordinates (instruction count, number
   of components/intents) and the most fixpoint rounds any component
   took. *)
let extract ?(k1 = true) ?(all_methods = false) (apk : Apk.t) : App_model.t =
  let model, extraction_ms =
    Trace.timed "ame.extract" (fun () ->
        let extracted =
          List.map (component_model ~k1 ~all_methods apk)
            apk.Apk.manifest.Manifest.components
        in
        (* Dynamic receiver registrations observed anywhere in the app are
           attached to the component class they name (or, failing that, to
           the registering component).  SEPAR's formal encoding ignores this
           field — the paper's documented limitation — but baseline tools
           read it. *)
        let registrations = List.concat_map (fun (_, r, _) -> r) extracted in
        let components =
          List.map
            (fun (cm, _, _) ->
              let mine =
                List.filter_map
                  (fun (tgt, f) ->
                    if tgt = cm.App_model.cm_name then Some f else None)
                  registrations
              in
              { cm with App_model.cm_dynamic_filters = mine })
            extracted
        in
        let n_intents =
          List.fold_left
            (fun acc cm -> acc + List.length cm.App_model.cm_intents)
            0 components
        in
        Trace.add_attr "package" (Trace.Str (Apk.package apk));
        Trace.add_attr "size" (Trace.Int (Apk.size apk));
        Trace.add_attr "components" (Trace.Int (List.length components));
        Trace.add_attr "intents" (Trace.Int n_intents);
        Trace.add_attr "fixpoint_rounds"
          (Trace.Int
             (List.fold_left (fun acc (_, _, r) -> max acc r) 0 extracted));
        Metrics.incr c_apps;
        Metrics.add c_components (List.length components);
        Metrics.add c_intents n_intents;
        {
          App_model.am_package = Apk.package apk;
          am_declared_permissions = apk.Apk.manifest.Manifest.uses_permissions;
          am_components = components;
          am_extraction_ms = 0.0;
          am_size = Apk.size apk;
        })
  in
  Metrics.observe h_extract_ms extraction_ms;
  Log.info "ame.extract"
    ~fields:
      [
        ("package", Trace.Str model.App_model.am_package);
        ("components", Trace.Int (List.length model.App_model.am_components));
        ("extraction_ms", Trace.Float extraction_ms);
      ];
  { model with App_model.am_extraction_ms = extraction_ms }
