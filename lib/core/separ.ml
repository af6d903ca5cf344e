(* SEPAR: formal synthesis and automatic enforcement of Android security
   policies — the public facade.

   The full pipeline is three calls:

   {[
     let analysis = Separ.analyze [ apk1; apk2; ... ] in   (* AME + ASE *)
     let device = Device.create () in
     List.iter (Device.install device) apks;
     Separ.protect device analysis                         (* APE *)
   ]}

   [analyze] statically extracts an architectural model of every app,
   encodes the bundle together with the Android framework model and the
   registered vulnerability signatures into bounded relational logic,
   synthesizes minimal exploit scenarios with the SAT-based engine, and
   derives one ECA policy per scenario.  [protect] loads the synthesized
   policies into the device's policy decision point and switches
   enforcement on.

   Submodules re-export the full API of each subsystem. *)

(* Domain model *)
module Permission = Separ_android.Permission
module Resource = Separ_android.Resource
module Intent = Separ_android.Intent
module Intent_filter = Separ_android.Intent_filter
module Component = Separ_android.Component
module Manifest = Separ_android.Manifest
module Api = Separ_android.Api

(* Bytecode substrate *)
module Ir = Separ_dalvik.Ir
module Apk = Separ_dalvik.Apk
module Builder = Separ_dalvik.Builder
module Asm = Separ_dalvik.Asm

(* Analysis stack *)
module App_model = Separ_ame.App_model
module Extract = Separ_ame.Extract
module Bundle = Separ_ame.Bundle
module Scenario = Separ_specs.Scenario
module Signatures = Separ_specs.Signatures
module Ase = Separ_ase.Ase

(* Persistent analysis cache *)
module Cache = Separ_cache.Store

(* App-store analysis service *)
module Serve = Separ_serve.Serve
module Footprint = Separ_serve.Index

(* Policies and enforcement *)
module Policy = Separ_policy.Policy
module Compile = Separ_policy.Compile
module Derive = Separ_policy.Derive
module Device = Separ_runtime.Device
module Effect = Separ_runtime.Effect
module Attack = Separ_runtime.Attack

(* The paper's motivating-example apps, used by examples, tests and
   benches. *)
module Demo = Demo

type analysis = {
  bundle : Bundle.t;
  report : Ase.report;
  policies : Policy.t list;
}

(* One analysis per bundle of extracted models: every bundle's
   signature shards share one worker-pool run (see Ase.analyze_many),
   then each report derives its bundle's policies. *)
let analyze_models ?jobs ?budget ?cache ~limit_per_sig models =
  let bundles = List.map Bundle.of_models models in
  let reports = Ase.analyze_many ~limit_per_sig ?jobs ?budget ?cache bundles in
  List.map2
    (fun bundle report ->
      let scenarios =
        List.map (fun v -> v.Ase.v_scenario) report.Ase.r_vulnerabilities
      in
      let policies =
        Derive.of_report (Bundle.update_passive_targets bundle) scenarios
      in
      { bundle; report; policies })
    bundles reports

(* Analyze several independent bundles in one go: extract every app,
   then synthesize over all bundles in one pool run, so a store-scale
   run at [jobs > 1] pays fork startup once — not once per bundle.
   Returns one analysis per bundle, in order. *)
let analyze_bundles ?(limit_per_sig = Separ_relog.Solve.default_enum_limit)
    ?jobs ?budget ?cache (bundles : Apk.t list list) : analysis list =
  analyze_models ?jobs ?budget ?cache ~limit_per_sig
    (List.map (List.map Extract.extract) bundles)

(* Run AME and ASE over a bundle of apps and synthesize policies: the
   one-bundle case of [analyze_bundles].  [jobs] widens ASE's worker
   pool; [budget] bounds each signature's solver session (exhausted
   signatures degrade, see Ase.degraded); [cache] makes ASE verdicts
   read-through a persistent store, so re-analyzing an unchanged (or
   barely changed) bundle skips the solving. *)
let analyze ?limit_per_sig ?jobs ?budget ?cache (apks : Apk.t list) =
  List.hd (analyze_bundles ?limit_per_sig ?jobs ?budget ?cache [ apks ])

(* Incremental re-analysis, the paper's Marshmallow scenario: when apps
   change (an update, or the user revoking a permission), only the
   changed apps are re-extracted; the other app models are reused and
   only the synthesis step re-runs over the updated bundle. *)
let reanalyze ?(limit_per_sig = Separ_relog.Solve.default_enum_limit) ?jobs
    ?budget ?cache (previous : analysis) ~(changed : Apk.t list) : analysis =
  let changed_pkgs = List.map Apk.package changed in
  let kept =
    List.filter
      (fun m -> not (List.mem m.App_model.am_package changed_pkgs))
      (Bundle.apps previous.bundle)
  in
  List.hd
    (analyze_models ?jobs ?budget ?cache ~limit_per_sig
       [ kept @ List.map Extract.extract changed ])

let vulnerabilities analysis = analysis.report.Ase.r_vulnerabilities
let policies analysis = analysis.policies

(* Install the synthesized policies on a device and enable enforcement. *)
let protect device analysis =
  let packages =
    List.map
      (fun m -> m.App_model.am_package)
      (Bundle.apps analysis.bundle)
  in
  Device.set_policies device analysis.policies packages;
  Device.set_enforcement device true

let pp_analysis ppf a =
  Fmt.pf ppf "@[<v>%a@,--- synthesized policies ---@,%a@]" Ase.pp_report
    a.report
    Fmt.(list ~sep:cut Policy.pp)
    a.policies
