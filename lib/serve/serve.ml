(* The app-store analysis service: a long-lived store of extracted app
   models with a job queue of upload/update/remove events.

   One-shot analysis re-pairs the whole store on every change — the
   O(n^2) wall every inter-app ICC analysis hits at store scale.  Here
   each app's verdict is the analysis of its *scope bundle* (the app
   plus its exact ICC partners), and the footprint index turns an
   event into the candidate set of apps whose scope could have
   changed: the uploaded app itself, everyone its old footprint could
   reach, and everyone its new footprint can reach.  Scope membership
   itself is exact (index candidates re-checked with
   [Bundle.resolves_to]), so which apps get re-analyzed is a
   conservative superset of which apps' bundles changed — selective
   processing reproduces full repair byte for byte while dispatching
   strictly fewer bundles on sparse stores.

   An upload whose extracted model equals the stored one (extraction
   time aside) changes neither the model map nor the index, so every
   scope bundle and every report stays as it is: it dispatches only the
   bundles among [pkg] and its old reach whose report is missing or
   degraded, normally none.  Every other event's dispatch rides the
   existing machinery: each scope bundle gets incremental shared-base
   ASE, and multi-bundle events fan out over the worker pool ([jobs]),
   whose workers are forked once per process.  No persistent cache: on
   this traffic its file publishes cost more than its hits saved. *)

open Separ_ame
module Ase = Separ_ase.Ase
module Trace = Separ_obs.Trace
module Metrics = Separ_obs.Metrics
module Log = Separ_obs.Log
module Smap = Map.Make (String)
module Pkgs = Index.Pkgs

let c_uploads = Metrics.counter "serve.uploads"
let c_removes = Metrics.counter "serve.removes"
let c_selected = Metrics.counter "serve.bundles_selected"
let c_skipped = Metrics.counter "serve.bundles_skipped"

let h_latency_ms =
  Metrics.histogram
    ~buckets:[| 1.0; 5.0; 10.0; 50.0; 100.0; 500.0; 1000.0; 5000.0 |]
    "serve.upload_to_verdict_ms"

type event = Upload of Separ_dalvik.Apk.t | Remove of string

type verdict = {
  vd_package : string;
  vd_event : string;  (* "upload" or "remove" *)
  vd_store_size : int;
  vd_candidates : string list;
  vd_analyzed : int;
  vd_vulnerabilities : int;
  vd_latency_ms : float;
}

type t = {
  mutable models : App_model.t Smap.t;
  index : Index.t;
  reports : (string, Ase.report) Hashtbl.t;
  queue : event Queue.t;
  limit_per_sig : int;
  jobs : int;
}

let create ?(limit_per_sig = Separ_relog.Solve.default_enum_limit) ?(jobs = 1)
    ?cache:_ () =
  {
    models = Smap.empty;
    index = Index.create ();
    reports = Hashtbl.create 64;
    queue = Queue.create ();
    limit_per_sig;
    jobs;
  }

let store_size t = Smap.cardinal t.models
let packages t = List.map fst (Smap.bindings t.models)
let report t pkg = Hashtbl.find_opt t.reports pkg

let reports t =
  List.sort
    (fun (a, _) (b, _) -> compare (a : string) b)
    (Hashtbl.fold (fun pkg r acc -> (pkg, r) :: acc) t.reports [])

(* Exact interaction test behind the index's candidates: does either
   app own an intent that resolves to a component of the other? *)
let interacts (a : App_model.t) (b : App_model.t) =
  let sends (src : App_model.t) (dst : App_model.t) =
    List.exists
      (fun (c : App_model.component_model) ->
        List.exists
          (fun im ->
            List.exists
              (fun dc -> Bundle.resolves_to im dc)
              dst.App_model.am_components)
          c.App_model.cm_intents)
      src.App_model.am_components
  in
  sends a b || sends b a

(* The scope bundle of one app: itself plus its exact ICC partners,
   found by re-checking the index's candidate partners.  Members are
   sorted by package, so the bundle (and hence its report) is a pure
   function of the store's model map — full repair and selective
   processing construct byte-identical inputs. *)
let scope t pkg =
  match Smap.find_opt pkg t.models with
  | None -> []
  | Some app ->
      let candidates = Index.affected t.index app in
      let partners =
        Pkgs.fold
          (fun other acc ->
            if other = pkg then acc
            else
              match Smap.find_opt other t.models with
              | Some om when interacts app om -> other :: acc
              | _ -> acc)
          candidates []
      in
      List.sort compare (pkg :: partners)

let scope_bundle t pkg =
  Bundle.of_models
    (List.filter_map (fun p -> Smap.find_opt p t.models) (scope t pkg))

(* Re-analyze the scope bundles of [pkgs] (sorted, deduplicated
   upstream) on the worker pool and install the fresh reports. *)
let analyze_scopes t pkgs =
  let bundles = List.map (scope_bundle t) pkgs in
  let reports =
    Ase.analyze_many ~limit_per_sig:t.limit_per_sig ~jobs:t.jobs bundles
  in
  List.iter2 (fun pkg r -> Hashtbl.replace t.reports pkg r) pkgs reports

(* Equal up to extraction time, the one field that differs between two
   extractions of the same bytes.  Equal models leave the model map and
   the index as they are, and with them every scope bundle. *)
let same_model (a : App_model.t) (b : App_model.t) =
  { a with App_model.am_extraction_ms = b.App_model.am_extraction_ms } = b

(* Process one event against the live store: update models and index,
   select the candidate set, dispatch only those scope bundles (none
   for an unchanged re-upload whose reports are all complete).  One
   [serve.event] span covers the whole event, with the dispatch in a
   [serve.analyze] span inside it. *)
let process t event =
  let t0 = Unix.gettimeofday () in
  let kind, pkg =
    match event with
    | Upload apk -> ("upload", Separ_dalvik.Apk.package apk)
    | Remove pkg -> ("remove", pkg)
  in
  Trace.with_span "serve.event"
    ~attrs:[ Trace.attr_str "kind" kind; Trace.attr_str "package" pkg ]
    (fun () ->
      let affected =
        match event with
        | Upload apk -> (
            let fresh = Extract.extract apk in
            Metrics.incr c_uploads;
            match Smap.find_opt pkg t.models with
            | Some old when same_model fresh old ->
                (* unchanged: the stored model and the index stay, so
                   only a report an earlier event left missing or
                   degraded needs another run *)
                Pkgs.filter
                  (fun p ->
                    match Hashtbl.find_opt t.reports p with
                    | Some r -> r.Ase.r_degraded <> []
                    | None -> true)
                  (Pkgs.add pkg (Index.affected t.index old))
            | old ->
                (* everyone the old footprint could touch... *)
                let before =
                  match old with
                  | Some old ->
                      let reach = Index.affected t.index old in
                      Index.remove t.index old;
                      reach
                  | None -> Pkgs.empty
                in
                t.models <- Smap.add pkg fresh t.models;
                Index.add t.index fresh;
                (* ... plus everyone the new footprint can touch *)
                let after = Index.affected t.index fresh in
                Pkgs.add pkg (Pkgs.union before after))
        | Remove _ ->
            let affected =
              match Smap.find_opt pkg t.models with
              | Some old ->
                  let reach = Index.affected t.index old in
                  Index.remove t.index old;
                  t.models <- Smap.remove pkg t.models;
                  Hashtbl.remove t.reports pkg;
                  reach
              | None -> Pkgs.empty
            in
            Metrics.incr c_removes;
            affected
      in
      (* candidates: affected apps still in the store, in sorted order *)
      let candidates =
        List.filter (fun p -> Smap.mem p t.models) (Pkgs.elements affected)
      in
      let store_size = Smap.cardinal t.models in
      Trace.with_span "serve.analyze"
        ~attrs:
          [
            Trace.attr_str "package" pkg;
            Trace.attr_int "candidates" (List.length candidates);
            Trace.attr_int "store_size" store_size;
          ]
        (fun () -> analyze_scopes t candidates);
      Metrics.add c_selected (List.length candidates);
      Metrics.add c_skipped (max 0 (store_size - List.length candidates));
      let latency_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      Metrics.observe h_latency_ms latency_ms;
      let vulnerabilities =
        match Hashtbl.find_opt t.reports pkg with
        | Some r -> List.length r.Ase.r_vulnerabilities
        | None -> 0
      in
      Log.info "serve.verdict"
        ~fields:
          [
            ("package", Trace.Str pkg);
            ("event", Trace.Str kind);
            ("candidates", Trace.Int (List.length candidates));
            ("store_size", Trace.Int store_size);
            ("latency_ms", Trace.Float latency_ms);
          ];
      {
        vd_package = pkg;
        vd_event = kind;
        vd_store_size = store_size;
        vd_candidates = candidates;
        vd_analyzed = List.length candidates;
        vd_vulnerabilities = vulnerabilities;
        vd_latency_ms = latency_ms;
      })

let submit t event = Queue.add event t.queue

let drain t =
  let rec go acc =
    match Queue.take_opt t.queue with
    | None -> List.rev acc
    | Some ev -> go (process t ev :: acc)
  in
  go []

(* The brute-force reference: re-analyze every app's scope bundle.
   Selective processing must agree with this byte for byte (stripped),
   which the [--smoke serve] gate and test_serve.ml assert. *)
let full_repair t =
  let pkgs = packages t in
  Trace.with_span "serve.full_repair"
    ~attrs:[ Trace.attr_int "store_size" (List.length pkgs) ]
    (fun () -> analyze_scopes t pkgs);
  List.length pkgs

(* Rebuild the footprint index from the live models — a consistency
   escape hatch; hot updates keep [Index.equal] to this (tested). *)
let rebuilt_index t = Index.rebuild (List.map snd (Smap.bindings t.models))
let index t = t.index

let pp_verdict ppf v =
  Fmt.pf ppf
    "%s %s: %d vulnerabilities (%d/%d bundles analyzed, %.1f ms)"
    v.vd_event v.vd_package v.vd_vulnerabilities v.vd_analyzed
    v.vd_store_size v.vd_latency_ms
