(** SEPAR: formal synthesis and automatic enforcement of Android security
    policies — the public facade.

    The full pipeline is three calls:

    {[
      let analysis = Separ.analyze [ apk1; apk2 ] in   (* AME + ASE *)
      let device = Separ.Device.create () in
      List.iter (Separ.Device.install device) apks;
      Separ.protect device analysis                    (* APE *)
    ]}

    Submodules re-export the API of each subsystem. *)

(** {1 Domain model} *)

module Permission = Separ_android.Permission
module Resource = Separ_android.Resource
module Intent = Separ_android.Intent
module Intent_filter = Separ_android.Intent_filter
module Component = Separ_android.Component
module Manifest = Separ_android.Manifest
module Api = Separ_android.Api

(** {1 Bytecode substrate} *)

module Ir = Separ_dalvik.Ir
module Apk = Separ_dalvik.Apk
module Builder = Separ_dalvik.Builder
module Asm = Separ_dalvik.Asm

(** {1 Analysis stack} *)

module App_model = Separ_ame.App_model
module Extract = Separ_ame.Extract
module Bundle = Separ_ame.Bundle
module Scenario = Separ_specs.Scenario
module Signatures = Separ_specs.Signatures
module Ase = Separ_ase.Ase

(** {1 Persistent analysis cache} *)

module Cache = Separ_cache.Store

(** {1 App-store analysis service}

    A long-lived store of extracted models with a job queue of
    upload/update/remove events: the {!Footprint} index maps each
    event to the candidate set of affected scope bundles, and only
    those are re-analyzed (through the {!Cache}, over the worker
    pool).  See {!Serve.drain} and {!Serve.full_repair}. *)

module Serve = Separ_serve.Serve
module Footprint = Separ_serve.Index

(** {1 Policies and enforcement} *)

module Policy = Separ_policy.Policy
module Compile = Separ_policy.Compile
module Derive = Separ_policy.Derive
module Device = Separ_runtime.Device
module Effect = Separ_runtime.Effect
module Attack = Separ_runtime.Attack

(** The paper's motivating-example apps (Listings 1-2 and the Figure 1
    malware), used by examples, tests and benches. *)
module Demo : sig
  val navigation_app : unit -> Apk.t
  val messenger_app : ?guarded:bool -> unit -> Apk.t
  val relay_malware : unit -> Apk.t
end

(** The result of the synthesis pipeline: the extracted bundle, the
    vulnerability report, and one ECA policy per exploit scenario. *)
type analysis = {
  bundle : Bundle.t;
  report : Ase.report;
  policies : Policy.t list;
}

(** Run AME and ASE over a bundle of apps and synthesize policies: the
    one-bundle case of {!analyze_bundles}, over every registered
    vulnerability signature.  [limit_per_sig] caps scenarios per
    signature; [jobs] widens ASE's fork-based worker pool (default
    sequential); [budget] bounds each signature's solver session —
    exhausted or crashed signatures degrade to {!Ase.degraded} entries
    in the report instead of failing the analysis; [cache] makes ASE
    verdicts read-through a persistent {!Cache.t}, so re-analyzing an
    unchanged (or barely changed) bundle skips the solving of every
    signature whose encoded problem is unchanged.  Extraction always
    runs: it costs about as much as a cache lookup. *)
val analyze :
  ?limit_per_sig:int ->
  ?jobs:int ->
  ?budget:Separ_sat.Solver.budget ->
  ?cache:Cache.t ->
  Apk.t list ->
  analysis

(** Analyze several independent bundles in one go (see
    {!Ase.analyze_many}): every bundle's signature shards share one
    worker-pool run, so a store-scale run at [jobs > 1] pays fork
    startup once — not once per bundle — while each shard still shares
    its encoding across signatures.  Returns one {!analysis} per bundle,
    in order. *)
val analyze_bundles :
  ?limit_per_sig:int ->
  ?jobs:int ->
  ?budget:Separ_sat.Solver.budget ->
  ?cache:Cache.t ->
  Apk.t list list ->
  analysis list

(** Incremental re-analysis, the paper's Marshmallow scenario: only the
    [changed] apps (matched by package) are re-extracted; the remaining
    app models are reused and only the synthesis step re-runs. *)
val reanalyze :
  ?limit_per_sig:int ->
  ?jobs:int ->
  ?budget:Separ_sat.Solver.budget ->
  ?cache:Cache.t ->
  analysis ->
  changed:Apk.t list ->
  analysis

val vulnerabilities : analysis -> Ase.vulnerability list
val policies : analysis -> Policy.t list

(** Load the synthesized policies into the device's PDP and enable
    enforcement. *)
val protect : Device.t -> analysis -> unit

val pp_analysis : Format.formatter -> analysis -> unit
