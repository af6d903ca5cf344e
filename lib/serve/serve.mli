(** The app-store analysis service: a long-lived store of extracted app
    models with a job queue of upload/update/remove events and
    footprint-indexed bundle selection.

    Each app's verdict is the analysis of its {e scope bundle} — the
    app plus its exact ICC partners (index candidates re-checked with
    {!Separ_ame.Bundle.resolves_to}), members sorted by package.  An
    event re-analyzes only the candidate set the {!Index} maps it to;
    {!full_repair} is the brute-force reference the selective path must
    reproduce byte for byte (stripped reports), with strictly fewer
    bundles dispatched on sparse stores.

    An upload whose extracted model equals the stored model of its
    package (extraction time aside) leaves the store and the index as
    they are, and dispatches only the scope bundles among the package
    and its reach whose report is missing or degraded — normally none.
    Multi-bundle events fan out over the worker pool ([jobs]), forked
    once per process; every event is traced
    ([serve.event]/[serve.analyze] spans) and metered ([serve.*]
    counters, the [serve.upload_to_verdict_ms] histogram). *)

type event = Upload of Separ_dalvik.Apk.t | Remove of string

type verdict = {
  vd_package : string;
  vd_event : string;  (** ["upload"] or ["remove"] *)
  vd_store_size : int;     (** apps in the store after the event *)
  vd_candidates : string list;  (** sorted packages selected for re-analysis *)
  vd_analyzed : int;       (** scope bundles dispatched (= candidates) *)
  vd_vulnerabilities : int;     (** in the subject app's fresh report *)
  vd_latency_ms : float;   (** event intake → verdict stored *)
}

type t

(** [cache] is ignored: the daemon keeps no persistent verdict cache.
    The argument stays only for existing callers and goes with the
    next revision of the end-to-end benchmark. *)
val create :
  ?limit_per_sig:int ->
  ?jobs:int ->
  ?cache:Separ_cache.Store.t ->
  unit ->
  t

val submit : t -> event -> unit

(** Process every queued event in order; one verdict per event. *)
val drain : t -> verdict list

val store_size : t -> int
val packages : t -> string list

val report : t -> string -> Separ_ase.Ase.report option

(** All per-app reports, sorted by package. *)
val reports : t -> (string * Separ_ase.Ase.report) list

(** Scope-bundle membership of one app (sorted; [[]] if absent). *)
val scope : t -> string -> string list

(** Re-analyze every app's scope bundle; returns the bundle count
    (= store size). *)
val full_repair : t -> int

val index : t -> Index.t

(** The index as rebuilt from the live models — hot updates must keep
    {!index} [Index.equal] to this. *)
val rebuilt_index : t -> Index.t

val pp_verdict : Format.formatter -> verdict -> unit
