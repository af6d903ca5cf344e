(* Per-layer self-time attribution of a traced pass.

   The library records spans at its layer boundaries (ame.extract,
   ase.*, relog.bounds/circuit/tseitin, sat.preprocess/solve,
   policy.derive, serve.event/analyze).  The benchmark adds its own
   bench.* spans around the public calls that have none (Bundle, Derive,
   Compile, Device) and one root span per operation.  A span's self time
   is its duration minus the union of its children's intervals, and is
   credited to the span's layer.

   Spans run by pool workers come back grafted and pid-tagged, so with
   jobs > 1 the layer totals add up CPU time across processes and may
   exceed wall time.  Coverage is therefore measured in wall time on the
   root spans: the share of the operations' duration that no layer
   claims is what stays unattributed. *)

module Trace = Separ_obs.Trace

(* Self-time layers, in report order. *)
let layers =
  [
    "ame.extract_ms"; "ame.bundle_ms"; "specs.encode_ms"; "relog.bounds_ms";
    "relog.circuit_ms"; "relog.tseitin_ms"; "sat.preprocess_ms"; "sat.solve_ms";
    "ase.other_ms"; "policy.derive_ms"; "serve.select_ms"; "exec.dispatch_ms";
    "policy.compile_ms"; "runtime.launch_ms";
  ]

let layer_of_span = function
  | "ame.extract" -> Some "ame.extract_ms"
  | "bench.bundle" | "ase.resolve_targets" -> Some "ame.bundle_ms"
  | "ase.encode" | "ase.encode_base" | "ase.cache_fingerprint" ->
      Some "specs.encode_ms"
  | "relog.bounds" -> Some "relog.bounds_ms"
  | "relog.circuit" -> Some "relog.circuit_ms"
  | "relog.tseitin" -> Some "relog.tseitin_ms"
  | "sat.preprocess" -> Some "sat.preprocess_ms"
  | "sat.solve" -> Some "sat.solve_ms"
  | "ase.analyze" | "ase.signature" | "ase.scenario" | "relog.translate"
  | "relog.attach" ->
      Some "ase.other_ms"
  | "policy.derive" | "bench.derive" -> Some "policy.derive_ms"
  | "serve.event" | "serve.analyze" -> Some "serve.select_ms"
  | "bench.compile" | "bench.swap" -> Some "policy.compile_ms"
  | "bench.launch" -> Some "runtime.launch_ms"
  | _ -> None

type t = {
  self_ms : (string, float) Hashtbl.t;
  mutable work_ms : float;  (** summed duration of the root spans *)
  mutable unattributed_ms : float;  (** self time no layer claims *)
}

let create () = { self_ms = Hashtbl.create 16; work_ms = 0.0; unattributed_ms = 0.0 }

let self_ms t layer = Option.value ~default:0.0 (Hashtbl.find_opt t.self_ms layer)
let credit t layer ms = Hashtbl.replace t.self_ms layer (self_ms t layer +. ms)
let span_end (sp : Trace.span) = sp.Trace.sp_start_us +. sp.Trace.sp_dur_us

(* Length (us) of the union of the children's intervals, clipped to
   the span's own interval. *)
let covered_us (sp : Trace.span) =
  let lo = sp.Trace.sp_start_us and hi = span_end sp in
  let intervals =
    List.filter_map
      (fun c ->
        let a = Float.max lo c.Trace.sp_start_us and b = Float.min hi (span_end c) in
        if b > a then Some (a, b) else None)
      sp.Trace.sp_children
    |> List.sort compare
  in
  let closed, open_ =
    List.fold_left
      (fun (closed, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (closed, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (closed +. (cb -. ca), Some (a, b))
        | None -> (closed, Some (a, b)))
      (0.0, None) intervals
  in
  match open_ with Some (a, b) -> closed +. (b -. a) | None -> closed

(* The pool tags the roots it grafts back from a worker with its pid. *)
let grafted (sp : Trace.span) = List.mem_assoc "pid" sp.Trace.sp_attrs

let rec visit t (sp : Trace.span) =
  let self = (sp.Trace.sp_dur_us -. covered_us sp) /. 1000.0 in
  (if List.exists grafted sp.Trace.sp_children then begin
     (* The children ran in worker processes, so this span's own time
        went to handing work to the pool: fork, marshal, wait.  The
        exception is serve.analyze's lead-in before the first worker
        span, which is scope-bundle assembly. *)
     let lead =
       if sp.Trace.sp_name <> "serve.analyze" then 0.0
       else
         let first =
           List.fold_left
             (fun m c -> Float.min m c.Trace.sp_start_us)
             infinity sp.Trace.sp_children
         in
         Float.min self (Float.max 0.0 ((first -. sp.Trace.sp_start_us) /. 1000.0))
     in
     credit t "serve.select_ms" lead;
     credit t "exec.dispatch_ms" (self -. lead)
   end
   else
     match layer_of_span sp.Trace.sp_name with
     | Some layer -> credit t layer self
     | None -> t.unattributed_ms <- t.unattributed_ms +. self);
  List.iter (visit t) sp.Trace.sp_children

(* Fold every finished root into [t] and drop it from the recorder, so
   a long pass neither overflows the root ring nor grows memory.  Call
   between operations, when no span is open. *)
let absorb t =
  List.iter
    (fun (root : Trace.span) ->
      t.work_ms <- t.work_ms +. (root.Trace.sp_dur_us /. 1000.0);
      visit t root)
    (Trace.roots ());
  Trace.reset ()

(* Run [f] with the span recorder and the metrics registry on, then
   fold what it recorded into [t]. *)
let traced t f =
  Separ_obs.Metrics.enable ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Separ_obs.Metrics.disable ();
      absorb t)
    f

(* One untraced/traced pair, alternating which side goes first so that
   warm-cache and ordering effects cancel over the run. *)
let paired t k ~plain ~traced:side =
  if k mod 2 = 0 then begin
    plain ();
    traced t side
  end
  else begin
    traced t side;
    plain ()
  end

let coverage_pct t = 100.0 *. Util.ratio (t.work_ms -. t.unattributed_ms) t.work_ms

(* Every per-layer metric, in BENCHMARK.json order, with its unit.
   Layers a workload does not exercise report 0: that is the
   prediction for them. *)
let catalogue =
  List.map (fun l -> (l, "ms")) [ "ame.extract_ms"; "ame.bundle_ms"; "specs.encode_ms"; "relog.bounds_ms"; "relog.circuit_ms"; "relog.tseitin_ms" ]
  @ [ ("relog.gates", "count"); ("relog.clauses", "count"); ("relog.hc_hit_ratio", "ratio") ]
  @ [ ("sat.preprocess_ms", "ms"); ("sat.solve_ms", "ms"); ("sat.conflicts", "count") ]
  @ [ ("ase.other_ms", "ms"); ("policy.derive_ms", "ms"); ("serve.select_ms", "ms") ]
  @ [ ("serve.candidates_mean", "count"); ("serve.skip_ratio", "ratio") ]
  @ [ ("cache.ame_hit_ratio", "ratio"); ("cache.ase_hit_ratio", "ratio") ]
  @ [ ("exec.dispatch_ms", "ms"); ("exec.forks", "count"); ("policy.compile_ms", "ms") ]
  @ [ ("policy.decide_ns", "ns"); ("runtime.launch_ms", "ms"); ("runtime.launch_unhooked_us", "us") ]
  @ [ ("runtime.hook_overhead_pct", "%"); ("runtime.swap_us_p99", "us") ]
  @ [ ("trace.overhead_pct", "%"); ("trace.coverage_pct", "%"); ("trace.unattributed_ms", "ms") ]

(* The per-layer result of a traced pass of [ops] operations: self
   times per operation from [t], then [measured] values, 0 elsewhere. *)
let metrics t ~ops ~measured =
  let per_op v = v /. float_of_int (max 1 ops) in
  let base =
    [
      ("trace.coverage_pct", coverage_pct t);
      ("trace.unattributed_ms", per_op t.unattributed_ms);
    ]
  in
  List.map
    (fun (name, unit_) ->
      let v =
        match List.assoc_opt name (measured @ base) with
        | Some v -> v
        | None -> if List.mem name layers then per_op (self_ms t name) else 0.0
      in
      (name, v, unit_))
    catalogue
