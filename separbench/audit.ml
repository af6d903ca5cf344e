(* bundle_audit: the paper's analysis shape (Table II, RQ3).

   Seeded bundles drawn from the paper's four-store corpus mix go
   through the whole synthesis pipeline one at a time, closed loop, at
   -j 1 with no cache: Extract.extract per app, Bundle.of_models,
   Ase.analyze, Derive.of_report, Compile.compile.  Construction
   (translation and extraction) dominates; Serve, the cache, the worker
   pool and the runtime are bypassed, so changes to them should leave
   this workload flat. *)

open Separ
module Generator = Separ_workload.Generator
module Trace = Separ_obs.Trace
module Metrics = Separ_obs.Metrics

(* Apps per bundle.  Table II's bundles hold 50, but a 50-app bundle
   takes about 27 s at -j 1.  Ten apps still average over the corpus's
   skew (a five-app bundle's cost swings 4x between p50 and p90) and
   leave a run about a hundred samples. *)
let bundle_apps = 10

(* The golden bundles, the same for every seed: set-up runs them
   through the pipeline and checks them against golden.txt. *)
let golden_seed = 2016
let golden_bundles = 3
let setup_reps = 3

(* The paper's 4,000-app corpus mix scaled to [n] apps: every store
   keeps its share, its app-size range and its injection rates. *)
let profiles n =
  let total =
    List.fold_left (fun acc p -> acc + p.Generator.count) 0 Generator.default_profiles
  in
  let _, _, scaled =
    List.fold_left
      (fun (cum, given, acc) p ->
        let cum = cum + p.Generator.count in
        let upto = ((n * cum) + (total / 2)) / total in
        (cum, upto, { p with Generator.count = upto - given } :: acc))
      (0, 0, []) Generator.default_profiles
  in
  List.rev scaled

(* Bundle [b] of a seed: the four-store mix scaled to [bundle_apps]
   apps, generated from its own seed.  Every bundle has the store shares
   a large random bundle would nearly have, each sample is a distinct
   bundle, and only the bundle in hand is in memory. *)
let bundle ~seed b =
  Generator.generate ~seed:((seed * 1_000_003) + b) ~profiles:(profiles bundle_apps) ()

(* One operation: APK bundle in, compiled policies out. *)
let pipeline apps =
  Trace.with_span "bench.op" (fun () ->
      let models = List.map (fun g -> Extract.extract g.Generator.apk) apps in
      let bundle = Trace.with_span "bench.bundle" (fun () -> Bundle.of_models models) in
      let report = Ase.analyze ~jobs:1 bundle in
      let resolved =
        Trace.with_span "bench.bundle" (fun () -> Bundle.update_passive_targets bundle)
      in
      let policies =
        Trace.with_span "bench.derive" (fun () ->
            Derive.of_report resolved
              (List.map (fun v -> v.Ase.v_scenario) report.Ase.r_vulnerabilities))
      in
      ignore (Sys.opaque_identity (Trace.with_span "bench.compile" (fun () -> Compile.compile policies)));
      (bundle, report))

let signatures_of = function
  | Generator.Hijack -> [ "intent_hijack" ]
  | Generator.Launch -> [ "activity_launch"; "service_launch" ]
  | Generator.Privesc -> [ "privilege_escalation" ]
  | Generator.Leak -> [ "information_leakage"; "information_leakage_2hop" ]

(* Oracle: every injected vulnerability is reported against its app,
   unless its signature's enumeration hit the limit (then a miss is no
   verdict).  Returns the misses as "package:signature" strings. *)
let missed (bundle, report) apps =
  List.concat_map
    (fun g ->
      let pkg = Apk.package g.Generator.apk in
      List.filter_map
        (fun kind ->
          let sigs = signatures_of kind in
          if
            List.exists
              (fun s ->
                List.mem s report.Ase.r_truncated
                || List.mem pkg (Ase.vulnerable_apps report bundle s))
              sigs
          then None
          else Some (pkg ^ ":" ^ List.hd sigs))
        g.Generator.injected)
    apps

(* --- golden stripped reports ---------------------------------------------- *)

let golden_path = Filename.concat "separbench" "golden.txt"

let stripped_digest report =
  Digest.to_hex
    (Digest.string
       (Separ_report.Report.to_string ~report:(Ase.strip_performance report)
          ~policies:[] ()))

let golden_corpus () = Array.init golden_bundles (bundle ~seed:golden_seed)

(* One line per golden bundle: seed, bundle size, index, digest of the
   stripped report. *)
let golden_lines corpus =
  Array.to_list corpus
  |> List.mapi (fun i apps ->
         let _, report = pipeline apps in
         Printf.sprintf "%d %d %d %s" golden_seed bundle_apps i (stripped_digest report))

let write_golden () =
  let oc = open_out golden_path in
  List.iter (fun l -> output_string oc (l ^ "\n")) (golden_lines (golden_corpus ()));
  close_out oc

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

(* --- the run ---------------------------------------------------------------- *)

type pass = {
  ms : Util.Samples.t;  (** per-bundle latency *)
  mutable apps : int;
  mutable clauses : int;
  mutable attempted : int;
  mutable failed : int;
}

let pass () = { ms = Util.Samples.create (); apps = 0; clauses = 0; attempted = 0; failed = 0 }

(* Run one bundle into [p]; the oracle runs after the operation, outside
   its timing. *)
let op p apps =
  p.attempted <- p.attempted + 1;
  let t0 = Util.now_ns () in
  (match pipeline apps with
  | outcome -> (
      Util.Samples.add p.ms (Util.ns_since t0 *. 1e-6);
      p.apps <- p.apps + List.length apps;
      p.clauses <- p.clauses + (snd outcome).Ase.r_clauses;
      match missed outcome apps with
      | [] -> ()
      | misses ->
          p.failed <- p.failed + 1;
          Util.info "oracle: injected vulnerabilities not reported: %s" (String.concat " " misses))
  | exception e ->
      p.failed <- p.failed + 1;
      Util.info "bundle raised %s" (Printexc.to_string e));
  Util.sample_heap ()

let run ~seed ~seconds ~trace =
  let golden = golden_corpus () in
  (* Set-up: the golden bundles through the whole pipeline, the same
     work for every seed; the check against golden.txt is untimed. *)
  let golden_ok, setup_s =
    match Util.setup_timed ~trace ~reps:setup_reps (fun () -> golden_lines golden) with
    | lines, setup_s -> (lines = read_lines golden_path, setup_s)
    | exception e ->
        Util.info "golden bundles raised %s" (Printexc.to_string e);
        (false, 0.0)
  in
  if not golden_ok then Util.info "oracle: stripped reports differ from %s" golden_path;
  let golden_failed = if golden_ok then 0 else 1 in
  let until = Util.now_s () +. seconds in
  let bundle = bundle ~seed in
  if not trace then begin
    (* closed loop: the next bundle as soon as the previous verdict is in *)
    let p = pass () and sp = Util.Speed.create ~probes:3 in
    let i = ref 0 in
    while !i = 0 || Util.now_s () < until do
      let apps = bundle !i in
      let n0 = Util.Samples.count p.ms in
      op p apps;
      Util.Samples.scale_from p.ms n0 (Util.Speed.around sp);
      incr i
    done;
    let peak = Util.peak_heap_mb () in
    let p50 = Util.Samples.median p.ms and p90 = Util.Samples.percentile 0.90 p.ms in
    Util.info "bundles of %d apps: p50 %.1f ms, p90 %.1f ms (n=%d); %s" bundle_apps p50 p90
      (Util.Samples.count p.ms) (Util.Speed.note sp);
    {
      Util.attempted = p.attempted + 1;
      failed = p.failed + golden_failed;
      metrics =
        [
          ("setup_s", setup_s, "s");
          ("latency_ms_p50", p50, "ms");
          ("latency_ms_p90", p90, "ms");
          ("throughput_per_s", Util.ratio (float_of_int p.apps) (Util.Samples.sum p.ms /. 1000.0), "1/s");
          ("peak_heap_mb", peak, "MB");
        ];
    }
  end
  else begin
    (* Paired: every bundle runs untraced and traced, so drift over the
       run reaches both sides alike. *)
    let plain = pass () and traced = pass () in
    let attrib = Attrib.create () in
    Metrics.reset ();
    let n = ref 0 in
    while Util.now_s () < until do
      let apps = bundle !n in
      Attrib.paired attrib !n
        ~plain:(fun () -> op plain apps)
        ~traced:(fun () -> op traced apps);
      incr n
    done;
    let n = !n in
    let counter name = float_of_int (Metrics.counter_value (Metrics.counter name)) in
    let per_op v = v /. float_of_int (max 1 n) in
    let hc_hits = counter "relog.hashcons_hits" and hc_misses = counter "relog.hashcons_misses" in
    let plain_ms = Util.Samples.sum plain.ms and traced_ms = Util.Samples.sum traced.ms in
    let overhead = 100.0 *. Util.ratio (traced_ms -. plain_ms) plain_ms in
    Util.info "traced %d bundles: coverage %.1f%%, tracing overhead %.1f%%" n
      (Attrib.coverage_pct attrib) overhead;
    {
      Util.attempted = plain.attempted + traced.attempted + 1;
      failed = plain.failed + traced.failed + golden_failed;
      metrics =
        Attrib.metrics attrib ~ops:n
          ~measured:
            [
              ("relog.gates", per_op hc_misses);
              ("relog.clauses", per_op (float_of_int traced.clauses));
              ("relog.hc_hit_ratio", Util.ratio hc_hits (hc_hits +. hc_misses));
              ("sat.conflicts", per_op (counter "sat.conflicts"));
              ("exec.forks", per_op (counter "pool.forks"));
              ("trace.overhead_pct", overhead);
            ];
    }
  end
