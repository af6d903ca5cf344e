(* Export of the [Separ_obs] telemetry state.

   Three consumers:
   - [trace_json] / [write_trace]: the Chrome trace-event format
     (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
     loadable in chrome://tracing and Perfetto.  Spans are emitted as
     "X" (complete) events with microsecond timestamps, so parent/child
     nesting is encoded by interval containment.
   - [spans_json]: the span tree as nested JSON, merged into
     BENCH_*.json files for per-phase breakdowns.
   - [metrics_json]: the registry contents (counters, gauges,
     histograms), merged into the analysis report under [--metrics]. *)

module Trace = Separ_obs.Trace
module Metrics = Separ_obs.Metrics

let of_value = function
  | Trace.Int i -> Json.Int i
  | Trace.Float f -> Json.Float f
  | Trace.Str s -> Json.Str s
  | Trace.Bool b -> Json.Bool b

let of_attrs attrs = Json.Obj (List.map (fun (k, v) -> (k, of_value v)) attrs)

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

let write_trace path =
  let oc = open_out path in
  output_string oc (Json.to_string (trace_json ()));
  output_string oc "\n";
  close_out oc

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

(* Everything at once: the shape merged into analysis reports and
   BENCH_*.json files. *)
let telemetry_json () =
  Json.Obj [ ("phases", spans_json ()); ("metrics", metrics_json ()) ]

(* --- OpenMetrics / Prometheus text export ---------------------------------

   The registry rendered in the OpenMetrics text format
   (https://prometheus.io/docs/specs/om/open_metrics_spec/), so a
   future [separ serve] can expose the same bytes on /metrics verbatim.

   Naming: [subsystem.metric_name] becomes [separ_subsystem_metric_name]
   (a "separ_" namespace prefix, every non-[a-zA-Z0-9_] character
   mapped to '_').  Counters get the conventional [_total] suffix.
   Histogram buckets are CUMULATIVE in this format — each [le="x"]
   sample counts every observation <= x, the [le="+Inf"] bucket equals
   [_count] — whereas [Metrics.histogram_buckets] is per-bucket, so the
   exporter folds a running sum. *)

let om_name name =
  let b = Bytes.of_string ("separ_" ^ name) in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
      | _ -> Bytes.set b i '_')
    b;
  Bytes.to_string b

(* Prometheus-style float rendering; bucket bounds and sums share it so
   the [le] labels are stable strings. *)
let om_float f =
  if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let openmetrics_string () =
  let buf = Buffer.create 4096 in
  let meta name typ =
    Buffer.add_string buf
      (Printf.sprintf "# HELP %s SEPAR metric %s\n# TYPE %s %s\n" name typ
         name typ)
  in
  List.iter
    (fun m ->
      match m with
      | Metrics.Counter c ->
          let n = om_name c.Metrics.c_name in
          meta n "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s_total %d\n" n (Metrics.counter_value c))
      | Metrics.Gauge g ->
          let n = om_name g.Metrics.g_name in
          meta n "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" n (om_float (Metrics.gauge_value g)))
      | Metrics.Histogram h ->
          let n = om_name h.Metrics.h_name in
          meta n "histogram";
          let cumulative = ref 0 in
          List.iter
            (fun (le, count) ->
              cumulative := !cumulative + count;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (om_float le)
                   !cumulative))
            (Metrics.histogram_buckets h);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" n
               (om_float (Metrics.histogram_sum h)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count %d\n" n (Metrics.histogram_count h)))
    (Metrics.all ());
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let write_openmetrics path =
  let oc = open_out path in
  output_string oc (openmetrics_string ());
  close_out oc

(* Well-formedness check over the exporter's output (used by the
   test_obs "OpenMetrics round-trip" case): every histogram family must
   have at least one bucket, ascending [le] labels, non-decreasing
   cumulative counts, a final [le="+Inf"] bucket equal to its [_count]
   sample, and a [_sum] sample; the exposition must end with [# EOF]. *)
let openmetrics_check text =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
  let* () =
    match List.rev lines with
    | "# EOF" :: _ -> Ok ()
    | _ -> Error "missing # EOF terminator"
  in
  (* family name -> declared type *)
  let types = Hashtbl.create 32 in
  (* histogram family -> (le string, value) list (reversed), sum?, count? *)
  let hists : (string, (string * float) list ref * float option ref * float option ref)
      Hashtbl.t =
    Hashtbl.create 32
  in
  let hist_of family =
    match Hashtbl.find_opt hists family with
    | Some h -> h
    | None ->
        let h = (ref [], ref None, ref None) in
        Hashtbl.replace hists family h;
        h
  in
  let strip_suffix s suffix =
    let n = String.length s and m = String.length suffix in
    if n >= m && String.sub s (n - m) m = suffix then
      Some (String.sub s 0 (n - m))
    else None
  in
  let parse_sample line =
    (* name[{labels}] value *)
    match String.index_opt line ' ' with
    | None -> Error (Printf.sprintf "sample without value: %S" line)
    | Some i -> (
        let name_part = String.sub line 0 i in
        let value_part = String.sub line (i + 1) (String.length line - i - 1) in
        match float_of_string_opt (String.trim value_part) with
        | None -> Error (Printf.sprintf "unparseable sample value: %S" line)
        | Some v -> (
            match String.index_opt name_part '{' with
            | None -> Ok (name_part, None, v)
            | Some j ->
                let name = String.sub name_part 0 j in
                let labels =
                  String.sub name_part (j + 1) (String.length name_part - j - 2)
                in
                Ok (name, Some labels, v)))
  in
  let le_of_labels labels =
    let prefix = "le=\"" in
    let n = String.length prefix in
    if
      String.length labels > n + 1
      && String.sub labels 0 n = prefix
      && labels.[String.length labels - 1] = '"'
    then Some (String.sub labels n (String.length labels - n - 1))
    else None
  in
  let* () =
    List.fold_left
      (fun acc line ->
        let* () = acc in
        if String.length line > 0 && line.[0] = '#' then begin
          (match String.split_on_char ' ' line with
          | "#" :: "TYPE" :: name :: typ :: _ -> Hashtbl.replace types name typ
          | _ -> ());
          Ok ()
        end
        else
          let* name, labels, v = parse_sample line in
          match strip_suffix name "_bucket" with
          | Some family when Hashtbl.find_opt types family = Some "histogram"
            -> (
              let buckets, _, _ = hist_of family in
              match labels with
              | Some l -> (
                  match le_of_labels l with
                  | Some le ->
                      buckets := (le, v) :: !buckets;
                      Ok ()
                  | None ->
                      Error
                        (Printf.sprintf "%s_bucket sample without le label"
                           family))
              | None ->
                  Error
                    (Printf.sprintf "%s_bucket sample without labels" family))
          | _ -> (
              match strip_suffix name "_sum" with
              | Some family when Hashtbl.find_opt types family = Some "histogram"
                ->
                  let _, sum, _ = hist_of family in
                  sum := Some v;
                  Ok ()
              | _ -> (
                  match strip_suffix name "_count" with
                  | Some family
                    when Hashtbl.find_opt types family = Some "histogram" ->
                      let _, _, count = hist_of family in
                      count := Some v;
                      Ok ()
                  | _ -> Ok ())))
      (Ok ()) lines
  in
  let le_value = function
    | "+Inf" -> Ok infinity
    | s -> (
        match float_of_string_opt s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "unparseable le label %S" s))
  in
  Hashtbl.fold
    (fun family (buckets, sum, count) acc ->
      let* () = acc in
      let buckets = List.rev !buckets in
      let* () =
        if buckets = [] then
          Error (Printf.sprintf "histogram %s has no buckets" family)
        else Ok ()
      in
      let* _ =
        List.fold_left
          (fun acc (le, v) ->
            let* prev_le, prev_v = acc in
            let* le = le_value le in
            if le <= prev_le then
              Error (Printf.sprintf "histogram %s: le labels not ascending"
                       family)
            else if v < prev_v then
              Error
                (Printf.sprintf "histogram %s: bucket counts not cumulative"
                   family)
            else Ok (le, v))
          (Ok (neg_infinity, 0.0))
          buckets
      in
      let last_le, last_v = List.nth buckets (List.length buckets - 1) in
      let* () =
        if last_le <> "+Inf" then
          Error (Printf.sprintf "histogram %s: missing le=\"+Inf\" bucket"
                   family)
        else Ok ()
      in
      let* () =
        match !count with
        | None -> Error (Printf.sprintf "histogram %s: missing _count" family)
        | Some c when c <> last_v ->
            Error
              (Printf.sprintf "histogram %s: +Inf bucket (%g) <> _count (%g)"
                 family last_v c)
        | Some _ -> Ok ()
      in
      match !sum with
      | None -> Error (Printf.sprintf "histogram %s: missing _sum" family)
      | Some _ -> Ok ())
    hists (Ok ())
