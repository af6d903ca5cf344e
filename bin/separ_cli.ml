(* The SEPAR command-line tool.

     separ analyze a.apk.txt b.apk.txt [-o policies.pol]
         run AME + ASE over the bundle and synthesize policies
     separ extract a.apk.txt
         print the extracted architectural model of one app
     separ table1
         reproduce the Table I tool comparison
     separ demo
         run the Figure-1 attack/defense demonstration
     separ generate -n 5 -d DIR
         emit synthetic store apps as .apk.txt files
     separ serve
         run the app-store analysis daemon: upload/remove events on
         stdin (or --events FILE), footprint-indexed selective
         re-analysis, one verdict line per event

   APK files use the textual container format of [Apk_text]: a manifest
   header followed by a smali-like class listing. *)

open Cmdliner
module Trace = Separ_obs.Trace
module Metrics = Separ_obs.Metrics
module Log = Separ_obs.Log

(* User errors (an unreadable path, malformed APK text or policy store,
   an unknown [--start] target) are raised as [Failure] or [Sys_error]
   and reported by the handler at [Cmd.eval] as one [separ: <msg>] line
   with exit code 1.  [with_path] makes a parse error name its file. *)
let with_path path f =
  try f path with Failure msg -> failwith (path ^ ": " ^ msg)

let load_apks paths =
  List.map (fun path -> with_path path Separ_dalvik.Apk_text.load) paths

(* Validating argument converters: [-j 0], [--limit 0] or a negative
   solve budget used to be accepted silently and produce undefined or
   empty downstream behaviour; now they fail at parse time with a clear
   message. *)
let int_at_least ~min ~what =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= min -> Ok n
    | Ok n ->
        Error
          (`Msg (Printf.sprintf "%s must be >= %d (got %d)" what min n))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"N" (parse, Arg.conv_printer Arg.int)

let nonneg_float ~what =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok f when f >= 0.0 -> Ok f
    | Ok f ->
        Error (`Msg (Printf.sprintf "%s must be >= 0 (got %g)" what f))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"MS" (parse, Arg.conv_printer Arg.float)

(* Shared [--trace FILE] / [--metrics] flags.  Either one switches the
   telemetry layer on (spans are what give [--metrics] its per-phase
   durations); with both off the instrumented hot paths cost one branch
   each and nothing is recorded. *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON of the run to $(docv) (open in \
           chrome://tracing or Perfetto)")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect pipeline metrics and per-phase durations; they are \
           merged into JSON output and printed to stderr for text output")

(* Structured observability flags, shared by [analyze] and [enforce]:
   [--log FILE] streams leveled NDJSON events (one JSON object per
   line; /dev/stderr works), [--metrics-out FILE] dumps the metric
   registry as JSON at exit, [--profile-gc] adds GC deltas
   to every span.  All of them imply switching the relevant telemetry
   layer on; with everything off the instrumented hot paths stay one
   branch each. *)
let log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Append structured NDJSON log events to $(docv) (use \
           $(b,/dev/stderr) to stream them to the terminal)")

let log_level_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("debug", Log.Debug); ("info", Log.Info); ("warn", Log.Warn);
             ("error", Log.Error);
           ])
        Log.Info
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Minimum level written to $(b,--log): $(b,debug), $(b,info), \
           $(b,warn) or $(b,error)")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the metric registry to $(docv) as JSON at exit (the \
           $(b,metrics) object of $(b,--format json --metrics); implies \
           metric collection)")

let profile_gc_arg =
  Arg.(
    value & flag
    & info [ "profile-gc" ]
        ~doc:
          "Capture GC deltas (minor/major words allocated, collections, \
           heap size) for every traced span, as $(b,gc.*) span attributes \
           and metrics (implies tracing and metric collection)")

let telemetry_setup ~trace ~metrics ~log ~log_level ~metrics_out ~profile_gc =
  if trace <> None || metrics || metrics_out <> None || profile_gc then begin
    Trace.enable ();
    Metrics.enable ()
  end;
  if profile_gc then Trace.set_profile_gc true;
  match log with
  | Some path ->
      Log.to_file path;
      Log.set_level log_level
  | None -> ()

(* Flush collected telemetry at the end of a command: the trace file if
   requested, the metric dump, and (for non-JSON consumers)
   human-readable summaries on stderr. *)
let telemetry_finish ?(to_stderr = true) ~trace ~metrics ?(metrics_out = None)
    () =
  (match trace with
  | Some path ->
      Separ_report.Telemetry.write_trace path;
      Fmt.epr "wrote trace to %s@." path
  | None -> ());
  (match metrics_out with
  | Some path ->
      Separ_report.Telemetry.write_metrics path;
      Fmt.epr "wrote metrics to %s@." path
  | None -> ());
  if metrics && to_stderr then begin
    Fmt.epr "--- span tree ---@.";
    Trace.print_summary ();
    Fmt.epr "--- metrics ---@.";
    Metrics.print ()
  end;
  Log.close ()

(* [analyze]'s persistent-cache flags. *)
let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Persist per-signature verdicts under $(docv), keyed by the \
           content of each encoded problem, so re-analyzing an unchanged \
           bundle re-runs no solving, and a one-app change re-solves only \
           the signatures the change touches.  Apps are extracted on every \
           run.  Corrupt entries degrade to recomputation.")

let cache_max_mb_arg =
  Arg.(
    value
    & opt (some (int_at_least ~min:1 ~what:"--cache-max-mb")) None
    & info [ "cache-max-mb" ] ~docv:"MB"
        ~doc:
          "Cap the cache directory at $(docv) MiB; least-recently-used \
           entries are evicted after each write.")

let cache_stats_arg =
  Arg.(
    value & flag
    & info [ "cache-stats" ]
        ~doc:
          "Print persistent-cache counters (hits, misses, stores, \
           evictions, corrupt entries, swept tmp files) to stderr.")

let open_cache ~cache_dir ~cache_max_mb =
  match cache_dir with
  | Some dir -> (
      match
        Separ.Cache.open_ ~dir
          ?max_bytes:(Option.map (fun mb -> mb * 1024 * 1024) cache_max_mb)
          ()
      with
      | store -> Some store
      | exception Sys_error msg ->
          Fmt.epr "separ: cannot open cache directory %s@." msg;
          exit 1)
  | None -> None

let print_cache_stats ~cache_stats cache =
  if cache_stats then begin
    match cache with
    | None -> Fmt.epr "cache: disabled@."
    | Some store ->
        Fmt.epr "cache (%s): %a@." (Separ.Cache.dir store)
          Fmt.(list ~sep:(any " ") (fun ppf (k, v) -> pf ppf "%s=%d" k v))
          (Separ.Cache.stats store)
  end

(* A positional path may be one APK text file or a directory holding a
   whole bundle of them; directories make [analyze] a multi-bundle run
   (one independent analysis per directory) that [--jobs] spreads across
   the worker pool. *)
let bundle_of_dir dir =
  let entries =
    match Sys.readdir dir with
    | entries ->
        Array.sort compare entries;
        Array.to_list entries
    | exception Sys_error msg -> failwith ("cannot read " ^ dir ^ ": " ^ msg)
  in
  let apks =
    List.filter_map
      (fun name ->
        if Filename.check_suffix name ".apk.txt" then
          Some (Filename.concat dir name)
        else None)
      entries
  in
  if apks = [] then failwith ("no .apk.txt files in " ^ dir);
  load_apks apks

let analyze_cmd =
  let paths =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"APK"
          ~doc:
            "APK text files forming one bundle, or directories of \
             $(b,.apk.txt) files forming one bundle each (don't mix the \
             two)")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write policies to $(docv)")
  in
  let limit =
    Arg.(
      value
      & opt (int_at_least ~min:1 ~what:"--limit")
          Separ_relog.Solve.default_enum_limit
      & info [ "limit" ] ~doc:"Maximum scenarios per vulnerability signature")
  in
  let jobs =
    Arg.(
      value
      & opt (int_at_least ~min:1 ~what:"--jobs") 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Run the analysis in $(docv) worker processes ($(docv) >= 1): \
             the pool forks them once per process and streams tasks to \
             them, one at a time.  With multiple bundle directories the \
             work is sharded across whole bundles first, then across \
             signatures within each bundle.  Results are merged in order, \
             so output is identical across $(docv); a crashed worker \
             degrades only its in-flight tasks instead of failing the run.")
  in
  let budget_conflicts =
    Arg.(
      value
      & opt (some (int_at_least ~min:0 ~what:"--solve-budget-conflicts")) None
      & info [ "solve-budget-conflicts" ] ~docv:"N"
          ~doc:
            "Cap each signature's solver session at $(docv) conflicts \
             ($(docv) >= 0); on exhaustion the signature is reported as \
             degraded (budget_exhausted) with the scenarios found so far.")
  in
  let budget_time =
    Arg.(
      value
      & opt (some (nonneg_float ~what:"--time-budget-ms")) None
      & info [ "time-budget-ms" ] ~docv:"MS"
          ~doc:
            "Cap each signature's solver session at $(docv) milliseconds of \
             wall-clock time ($(docv) >= 0); on exhaustion the signature is \
             reported as degraded (budget_exhausted).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print CDCL solver counters (conflicts, learnt-db \
                reductions, minimized literals, ...) and encoding-sharing \
                counters (translate-cache and hash-cons hits, reused \
                clauses, per-signature deltas) to stderr")
  in
  let run paths out limit jobs budget_conflicts budget_time cache_dir
      cache_max_mb cache_stats format stats trace metrics log log_level
      metrics_out profile_gc =
    telemetry_setup ~trace ~metrics ~log ~log_level ~metrics_out ~profile_gc;
    let budget =
      match (budget_conflicts, budget_time) with
      | None, None -> None
      | _ ->
          Some
            {
              Separ_sat.Solver.b_max_conflicts = budget_conflicts;
              b_max_time_ms = budget_time;
            }
    in
    let cache = open_cache ~cache_dir ~cache_max_mb in
    let dirs, files = List.partition Sys.is_directory paths in
    if dirs <> [] && files <> [] then begin
      Fmt.epr
        "separ analyze: mixing bundle directories and loose APK files is \
         ambiguous; pass either files (one bundle) or directories (one \
         bundle each)@.";
      exit 2
    end;
    (* [analyses]: one per bundle, labelled by its directory in
       multi-bundle mode. *)
    let analyses =
      match dirs with
      | [] ->
          [
            ( None,
              Separ.analyze ~limit_per_sig:limit ~jobs ?budget ?cache
                (load_apks files) );
          ]
      | dirs ->
          let bundles = List.map bundle_of_dir dirs in
          List.map2
            (fun dir analysis -> (Some dir, analysis))
            dirs
            (Separ.analyze_bundles ~limit_per_sig:limit ~jobs ?budget ?cache
               bundles)
    in
    print_cache_stats ~cache_stats cache;
    (match format with
    | `Text ->
        List.iter
          (fun (label, analysis) ->
            (match label with
            | Some dir -> Fmt.pr "=== bundle %s ===@." dir
            | None -> ());
            Fmt.pr "%a@." Separ.pp_analysis analysis)
          analyses;
        telemetry_finish ~trace ~metrics ~metrics_out ()
    | `Json ->
        let telemetry =
          if metrics then Some (Separ_report.Telemetry.telemetry_json ())
          else None
        in
        (* One indented object for loose APK files; in multi-bundle mode,
           newline-delimited JSON: one single-line report per bundle. *)
        List.iter
          (fun (label, analysis) ->
            print_endline
              (Separ_report.Report.to_string ~indent:(label = None) ?telemetry
                 ~report:analysis.Separ.report
                 ~policies:analysis.Separ.policies ()))
          analyses;
        telemetry_finish ~to_stderr:false ~trace ~metrics ~metrics_out ());
    List.iter (fun (label, analysis) ->
    if stats then begin
      (match label with
      | Some dir -> Fmt.epr "--- bundle %s ---@." dir
      | None -> ());
      List.iter (Fmt.epr "%s@.")
        (Separ_report.Report.stats_lines analysis.Separ.report)
    end)
    analyses;
    match out with
    | Some path ->
        let policies =
          List.concat_map (fun (_, a) -> a.Separ.policies) analyses
        in
        let oc = open_out path in
        output_string oc (Separ.Policy.to_string policies);
        output_string oc "\n";
        close_out oc;
        (* stderr, like the trace and metrics notices: stdout stays the
           report alone *)
        Fmt.epr "wrote %d policies to %s@." (List.length policies) path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Analyze one or more bundles and synthesize policies")
    Term.(
      const run $ paths $ out $ limit $ jobs $ budget_conflicts $ budget_time
      $ cache_dir_arg $ cache_max_mb_arg $ cache_stats_arg
      $ format $ stats $ trace_arg $ metrics_arg $ log_arg $ log_level_arg
      $ metrics_out_arg $ profile_gc_arg)

let extract_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"APK")
  in
  let run path =
    let apk = with_path path Separ_dalvik.Apk_text.load in
    let model = Separ.Extract.extract apk in
    Fmt.pr "%a@." Separ.App_model.pp model
  in
  Cmd.v
    (Cmd.info "extract" ~doc:"Print the extracted model of one app")
    Term.(const run $ path)

let table1_cmd =
  let run () =
    let rows = Separ_suites.Table1.run () in
    print_string (Separ_suites.Table1.render rows)
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce the Table I tool comparison")
    Term.(const run $ const ())

let demo_cmd =
  let run () =
    (* Inline version of examples/gps_sms_attack.ml for CLI users. *)
    let module B = Separ.Builder in
    let nav =
      Separ.Apk.make
        ~manifest:
          (Separ.Manifest.make ~package:"nav"
             ~uses_permissions:[ Separ.Permission.access_fine_location ]
             ~components:
               [
                 Separ.Component.make ~name:"Loc" ~kind:Separ.Component.Service ();
               ]
             ())
        ~classes:
          [
            B.cls ~name:"Loc"
              [
                B.meth ~name:"onStartCommand" ~params:1 (fun b ->
                    let v = B.get_location b in
                    let i = B.new_intent b in
                    B.set_action b i "showLoc";
                    B.put_extra b i ~key:"loc" ~value:v;
                    B.send_broadcast b i);
              ];
          ]
    in
    let analysis = Separ.analyze [ nav ] in
    Fmt.pr "%a@." Separ.pp_analysis analysis
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Analyze a small vulnerable app and show policies")
    Term.(const run $ const ())

let spec_cmd =
  let paths =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"APK" ~doc:"APK text files")
  in
  let run paths =
    let apks = load_apks paths in
    let models = List.map Separ.Extract.extract apks in
    let bundle =
      Separ.Bundle.update_passive_targets (Separ.Bundle.of_models models)
    in
    print_string (Separ_specs.Alloy_pp.bundle_spec bundle)
  in
  Cmd.v
    (Cmd.info "spec"
       ~doc:"Emit the bundle's formal model as Alloy-style text")
    Term.(const run $ paths)

let enforce_cmd =
  let paths =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"APK" ~doc:"APK text files")
  in
  let policies_file =
    Arg.(
      required
      & opt (some file) None
      & info [ "p"; "policies" ] ~docv:"FILE" ~doc:"Policy store to enforce")
  in
  let pp_start ppf (pkg, component, entry) =
    Fmt.pf ppf "%s/%s%a" pkg component Fmt.(option (any "/" ++ string)) entry
  in
  let start =
    let parse s =
      let parts = String.split_on_char '/' s in
      match parts with
      | [ pkg; component ] when not (List.mem "" parts) ->
          Ok (pkg, component, None)
      | [ pkg; component; entry ] when not (List.mem "" parts) ->
          Ok (pkg, component, Some entry)
      | _ ->
          Error
            (`Msg (Printf.sprintf "expected PKG/COMPONENT[/ENTRY], got %S" s))
    in
    Arg.(
      required
      & opt (some (conv ~docv:"PKG/COMPONENT[/ENTRY]" (parse, pp_start))) None
      & info [ "start" ] ~docv:"PKG/COMPONENT[/ENTRY]"
          ~doc:
            "Component to launch once the device is set up; $(i,PKG) must \
             be one of the given apps, $(i,COMPONENT) one of its classes and \
             $(i,ENTRY), if given, a method of that class (default: the \
             first lifecycle entry point of the component's kind that the \
             class defines, such as $(b,onCreate) for an activity or \
             $(b,onStartCommand) for a service)")
  in
  let consent =
    Arg.(
      value & flag
      & info [ "approve" ] ~doc:"Approve user prompts (default: refuse)")
  in
  let run paths policies_file start consent trace metrics log log_level
      metrics_out profile_gc =
    telemetry_setup ~trace ~metrics ~log ~log_level ~metrics_out ~profile_gc;
    let apks = load_apks paths in
    let policies =
      with_path policies_file (fun path ->
          Separ.Policy.of_string
            (In_channel.with_open_bin path In_channel.input_all))
    in
    let device = Separ.Device.create () in
    List.iter (Separ.Device.install device) apks;
    Separ.Device.set_policies device policies
      (List.map Separ.Apk.package apks);
    Separ.Device.set_enforcement device true;
    Separ.Device.set_consent device (fun _ _ -> consent);
    let ((pkg, component, entry) as target) = start in
    let entry =
      match Separ.Device.find_app device pkg with
      | None -> failwith ("--start: no app with package " ^ pkg)
      | Some apk -> (
          match (Separ.Apk.find_class apk component, entry) with
          | None, _ ->
              failwith
                (Printf.sprintf "--start: package %s has no component %s" pkg
                   component)
          | Some cls, Some entry ->
              if Separ.Ir.find_method cls entry = None then
                failwith
                  (Printf.sprintf "--start: component %s/%s has no entry %s"
                     pkg component entry);
              entry
          | Some _, None -> (
              match Separ.Apk.default_entry apk component with
              | Some entry -> entry
              | None ->
                  failwith
                    (Printf.sprintf
                       "--start: component %s/%s defines no lifecycle entry \
                        point of its kind; name one as %s/%s/ENTRY"
                       pkg component pkg component)))
    in
    Trace.with_span "runtime.start_component"
      ~attrs:[ Trace.attr_str "target" (Fmt.str "%a" pp_start target) ]
      (fun () -> Separ.Device.start_component device ~entry ~pkg ~component);
    List.iter
      (fun e -> Fmt.pr "%a@." Separ.Effect.pp e)
      (Separ.Device.effects device);
    telemetry_finish ~trace ~metrics ~metrics_out ()
  in
  Cmd.v
    (Cmd.info "enforce"
       ~doc:"Run a component on a simulated device under a policy store")
    Term.(
      const run $ paths $ policies_file $ start $ consent
      $ trace_arg $ metrics_arg $ log_arg $ log_level_arg $ metrics_out_arg
      $ profile_gc_arg)

let generate_cmd =
  let n =
    Arg.(value & opt int 5 & info [ "n" ] ~doc:"Number of apps to emit")
  in
  let dir =
    Arg.(
      value & opt string "."
      & info [ "d"; "dir" ]
          ~doc:"Output directory (created, parents included, if missing)")
  in
  let run n dir =
    Separ.Cache.mkdir_p dir;
    let corpus = Separ_workload.Generator.generate () in
    List.iteri
      (fun i g ->
        if i < n then begin
          let apk = g.Separ_workload.Generator.apk in
          let path =
            Filename.concat dir (Separ.Apk.package apk ^ ".apk.txt")
          in
          Separ_dalvik.Apk_text.save path apk;
          Fmt.pr "wrote %s@." path
        end)
      corpus
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Emit synthetic store apps as APK text files")
    Term.(const run $ n $ dir)

(* The app-store analysis daemon: a long-lived process holding the
   extracted-model store and footprint index, consuming one event per
   line and emitting one verdict line per event.  Commands:

     upload PATH    load PATH (.apk.txt), re-analyze affected bundles
                    (none when its model is unchanged)
     remove PKG     drop PKG, re-analyze its old partners
     status         print store size and packages
     repair         brute-force re-analysis of every bundle
     quit           exit (EOF does the same)

   A failing command (missing file, malformed APK) reports to stderr
   and leaves the daemon running. *)
let serve_cmd =
  let events =
    Arg.(
      value
      & opt (some file) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Read events from $(docv) (one per line; $(b,#) comments and \
             blank lines ignored) instead of stdin")
  in
  let jobs =
    Arg.(
      value
      & opt (int_at_least ~min:1 ~what:"--jobs") 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Fan multi-bundle events out over $(docv) worker processes \
             ($(docv) >= 1), forked once and kept for the daemon's \
             lifetime")
  in
  let limit =
    Arg.(
      value
      & opt (int_at_least ~min:1 ~what:"--limit")
          Separ_relog.Solve.default_enum_limit
      & info [ "limit" ] ~doc:"Maximum scenarios per vulnerability signature")
  in
  let run events jobs limit trace metrics log log_level metrics_out profile_gc
      =
    telemetry_setup ~trace ~metrics ~log ~log_level ~metrics_out ~profile_gc;
    let serve = Separ.Serve.create ~limit_per_sig:limit ~jobs () in
    let ic, close_ic =
      match events with
      | Some path ->
          let ic = open_in path in
          (ic, fun () -> close_in ic)
      | None -> (stdin, fun () -> ())
    in
    let print_verdicts () =
      List.iter
        (fun v -> Fmt.pr "%a@." Separ.Serve.pp_verdict v)
        (Separ.Serve.drain serve)
    in
    let split line =
      match String.index_opt line ' ' with
      | None -> (line, None)
      | Some i ->
          ( String.sub line 0 i,
            Some
              (String.trim
                 (String.sub line (i + 1) (String.length line - i - 1))) )
    in
    let rec loop () =
      match input_line ic with
      | exception End_of_file -> print_verdicts ()
      | line -> (
          let line = String.trim line in
          if line = "" || line.[0] = '#' then loop ()
          else
            match split line with
            | "upload", Some path ->
                (match Separ_dalvik.Apk_text.load path with
                | apk ->
                    Separ.Serve.submit serve (Separ.Serve.Upload apk);
                    print_verdicts ()
                | exception (Failure msg | Sys_error msg) ->
                    Fmt.epr "serve: upload %s failed: %s@." path msg
                | exception exn ->
                    Fmt.epr "serve: upload %s failed: %s@." path
                      (Printexc.to_string exn));
                loop ()
            | "remove", Some pkg ->
                Separ.Serve.submit serve (Separ.Serve.Remove pkg);
                print_verdicts ();
                loop ()
            | "status", None ->
                Fmt.pr "store: %d app(s)%s@."
                  (Separ.Serve.store_size serve)
                  (match Separ.Serve.packages serve with
                  | [] -> ""
                  | pkgs -> ": " ^ String.concat " " pkgs);
                loop ()
            | "repair", None ->
                let n = Separ.Serve.full_repair serve in
                Fmt.pr "repair: %d bundle(s) re-analyzed@." n;
                loop ()
            | "quit", None -> print_verdicts ()
            | _ ->
                Fmt.epr "serve: unknown command %S@." line;
                loop ())
    in
    loop ();
    close_ic ();
    telemetry_finish ~trace ~metrics ~metrics_out ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the app-store analysis daemon: footprint-indexed selective \
          re-analysis of upload/remove events")
    Term.(
      const run $ events $ jobs $ limit $ trace_arg $ metrics_arg $ log_arg
      $ log_level_arg $ metrics_out_arg $ profile_gc_arg)

let () =
  let info =
    Cmd.info "separ" ~version:"1.0.0"
      ~doc:"Formal synthesis and automatic enforcement of Android security policies"
  in
  let cmd =
    Cmd.group info
      [
        analyze_cmd; extract_cmd; spec_cmd; table1_cmd; demo_cmd;
        enforce_cmd; generate_cmd; serve_cmd;
      ]
  in
  match Cmd.eval ~catch:false cmd with
  | code -> exit code
  | exception (Failure msg | Sys_error msg) ->
      Fmt.epr "separ: %s@." msg;
      exit 1
  | exception e ->
      Fmt.epr "separ: internal error, uncaught exception:@\n%s@."
        (Printexc.to_string e);
      exit Cmd.Exit.internal_error
