(* Export of the [Separ_obs] telemetry state.

   Three consumers:
   - [trace_json] / [write_trace]: the Chrome trace-event format
     (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
     loadable in chrome://tracing and Perfetto.  Spans are emitted as
     "X" (complete) events with microsecond timestamps, so parent/child
     nesting is encoded by interval containment.
   - [spans_json]: the span tree as nested JSON, merged into
     BENCH_*.json files for per-phase breakdowns.
   - [metrics_json] / [write_metrics]: the registry contents
     (counters, gauges, histograms), merged into the analysis report
     under [--metrics] and dumped by [--metrics-out].
   All of it renders through [Json], the same writer as reports and
   the event log. *)

module Trace = Separ_obs.Trace
module Metrics = Separ_obs.Metrics

let of_attrs attrs =
  Json.Obj (List.map (fun (k, v) -> (k, Trace.json_of_value v)) attrs)

(* The span's category: the subsystem prefix of its name ("relog" for
   "relog.translate"), which chrome://tracing uses for colouring. *)
let category name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let rec trace_events_of_span acc (sp : Trace.span) =
  let event =
    Json.Obj
      [
        ("name", Json.Str sp.Trace.sp_name);
        ("cat", Json.Str (category sp.Trace.sp_name));
        ("ph", Json.Str "X");
        ("ts", Json.Float sp.Trace.sp_start_us);
        ("dur", Json.Float sp.Trace.sp_dur_us);
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", of_attrs sp.Trace.sp_attrs);
      ]
  in
  List.fold_left trace_events_of_span (event :: acc) sp.Trace.sp_children

let trace_json () =
  let events =
    List.rev (List.fold_left trace_events_of_span [] (Trace.roots ()))
  in
  Json.Obj
    [
      ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.Str "ms");
    ]

let write path json =
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_string oc "\n";
  close_out oc

let write_trace path = write path (trace_json ())

let rec span_json (sp : Trace.span) =
  Json.Obj
    (("name", Json.Str sp.Trace.sp_name)
     :: ("start_us", Json.Float sp.Trace.sp_start_us)
     :: ("dur_ms", Json.Float (sp.Trace.sp_dur_us /. 1000.0))
     :: (if sp.Trace.sp_attrs = [] then []
         else [ ("attrs", of_attrs sp.Trace.sp_attrs) ])
    @
    if sp.Trace.sp_children = [] then []
    else [ ("children", Json.List (List.map span_json sp.Trace.sp_children)) ])

let spans_json () = Json.List (List.map span_json (Trace.roots ()))

let histogram_json h =
  Json.Obj
    [
      ( "buckets",
        Json.List
          (List.map
             (fun (le, count) ->
               Json.Obj
                 [
                   ( "le",
                     if le = infinity then Json.Str "inf" else Json.Float le );
                   ("count", Json.Int count);
                 ])
             (Metrics.histogram_buckets h)) );
      ("count", Json.Int (Metrics.histogram_count h));
      ("sum", Json.Float (Metrics.histogram_sum h));
      ("mean", Json.Float (Metrics.histogram_mean h));
    ]

let metrics_json () =
  let counters, gauges, histograms =
    List.fold_left
      (fun (cs, gs, hs) m ->
        match m with
        | Metrics.Counter c ->
            ((c.Metrics.c_name, Json.Int (Metrics.counter_value c)) :: cs, gs, hs)
        | Metrics.Gauge g ->
            (cs, (g.Metrics.g_name, Json.Float (Metrics.gauge_value g)) :: gs, hs)
        | Metrics.Histogram h ->
            (cs, gs, (h.Metrics.h_name, histogram_json h) :: hs))
      ([], [], [])
      (List.rev (Metrics.all ()))
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms);
    ]

let write_metrics path = write path (metrics_json ())

(* Everything at once: the shape merged into analysis reports and
   BENCH_*.json files. *)
let telemetry_json () =
  Json.Obj [ ("phases", spans_json ()); ("metrics", metrics_json ()) ]
