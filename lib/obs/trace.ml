(* Hierarchical tracing for the SEPAR pipeline.

   A span records a named region of execution: monotonic start time,
   duration, nesting (children are regions entered while the span was
   open), and key/value attributes.  The clock is injectable so tests
   are fully deterministic.

   Cost discipline: when tracing is disabled, [with_span] is a single
   branch around the thunk — no clock reads, no allocation.  [timed]
   always measures (two clock reads) and additionally records a span
   when tracing is on; use it where the caller needs the duration
   regardless of telemetry (the benchmark harness, Table II timing).

   Finished top-level spans live in a bounded ring buffer: a long-lived
   process (the planned [separ serve] daemon) traces forever, so
   unbounded retention would be a slow leak.  When the ring is full the
   oldest root — together with its whole subtree — is dropped and
   counted in [dropped_roots].

   With [set_profile_gc true], enabled spans additionally capture
   [Gc.quick_stat] deltas (minor/major words allocated, collections,
   heap size) as [gc.*] span attributes; top-level spans also fold the
   deltas into [gc.*] metrics (only top-level ones — a parent's delta
   already includes its children's, so summing every span would double
   count). *)

type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  sp_id : int; (* unique within this process; see [current_span_id] *)
  sp_name : string;
  sp_start_us : float; (* microseconds since the clock's epoch *)
  mutable sp_dur_us : float;
  mutable sp_attrs : (string * value) list; (* in attachment order *)
  mutable sp_children : span list; (* reversed while open; in order after *)
}

(* --- global recorder state ------------------------------------------------ *)

let enabled = ref false
let default_clock () = Unix.gettimeofday ()
let clock = ref default_clock

(* Open spans, innermost first. *)
let stack : span list ref = ref []

(* Finished top-level spans: ring of at most [root_cap] roots, oldest
   overwritten first.  [ring_head] indexes the oldest retained root;
   [ring_len] is the number of live entries. *)
let default_root_cap = 4096
let ring : span option array ref = ref (Array.make default_root_cap None)
let ring_head = ref 0
let ring_len = ref 0
let dropped = ref 0
let next_id = ref 0

let enable () = enabled := true
let disable () = enabled := false
let is_enabled () = !enabled

(* Inject a clock returning seconds (monotone by convention); tests pass
   a counter-backed fake. *)
let set_clock f = clock := f
let use_default_clock () = clock := default_clock
let now_us () = !clock () *. 1e6

(* Drop all recorded spans (open ones included) and zero the
   dropped-root counter.  The clock, the enabled flag and the ring
   capacity are left as they are. *)
let reset () =
  stack := [];
  Array.fill !ring 0 (Array.length !ring) None;
  ring_head := 0;
  ring_len := 0;
  dropped := 0

let push_root sp =
  let a = !ring in
  let cap = Array.length a in
  if !ring_len = cap then begin
    (* full: the write position coincides with the oldest root *)
    a.(!ring_head) <- Some sp;
    ring_head := (!ring_head + 1) mod cap;
    incr dropped
  end
  else begin
    a.((!ring_head + !ring_len) mod cap) <- Some sp;
    incr ring_len
  end

let root_cap () = Array.length !ring
let dropped_roots () = !dropped

(* Resize the ring, keeping the newest roots that still fit; evicted
   ones count as dropped. *)
let set_root_cap n =
  let n = max 1 n in
  let a = !ring in
  let cap = Array.length a in
  let keep = min !ring_len n in
  let fresh = Array.make n None in
  for i = 0 to keep - 1 do
    fresh.(i) <- a.((!ring_head + (!ring_len - keep) + i) mod cap)
  done;
  dropped := !dropped + (!ring_len - keep);
  ring := fresh;
  ring_head := 0;
  ring_len := keep

let attr_int k v = (k, Int v)
let attr_float k v = (k, Float v)
let attr_str k v = (k, Str v)
let attr_bool k v = (k, Bool v)

(* The one mapping of an attribute or log-field value to JSON, shared
   by the trace exporter and the event log. *)
let json_of_value = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

(* Attach an attribute to the innermost open span (no-op when disabled
   or outside any span). *)
let add_attr key v =
  match !stack with
  | sp :: _ -> sp.sp_attrs <- sp.sp_attrs @ [ (key, v) ]
  | [] -> ()

(* The innermost open span's id, for correlating log events with the
   phase they were emitted from.  Ids are per-process (a worker's ids
   overlap the parent's); cross-process, pid + span id disambiguates. *)
let current_span_id () =
  match !stack with sp :: _ -> Some sp.sp_id | [] -> None

let start_span ?(attrs = []) name =
  incr next_id;
  let sp =
    {
      sp_id = !next_id;
      sp_name = name;
      sp_start_us = now_us ();
      sp_dur_us = 0.0;
      sp_attrs = attrs;
      sp_children = [];
    }
  in
  stack := sp :: !stack;
  sp

let finish_span sp =
  sp.sp_dur_us <- now_us () -. sp.sp_start_us;
  sp.sp_children <- List.rev sp.sp_children;
  (match !stack with
  | top :: rest when top == sp -> stack := rest
  | _ ->
      (* unbalanced finish (an exception unwound through several spans):
         pop down to — and including — this span *)
      let rec pop = function
        | top :: rest when top == sp -> rest
        | _ :: rest -> pop rest
        | [] -> []
      in
      stack := pop !stack);
  match !stack with
  | parent :: _ -> parent.sp_children <- sp :: parent.sp_children
  | [] -> push_root sp

(* --- GC profiling --------------------------------------------------------- *)

let profile_gc = ref false
let set_profile_gc b = profile_gc := b
let is_profiling_gc () = !profile_gc

(* Registered on first use, not at module init: runs that never profile
   GC should not grow every metrics export by five all-zero [gc.*]
   rows. *)
let gc_handles = ref None

let gc_metrics () =
  match !gc_handles with
  | Some handles -> handles
  | None ->
      let handles =
        ( Metrics.counter "gc.minor_words",
          Metrics.counter "gc.major_words",
          Metrics.counter "gc.minor_collections",
          Metrics.counter "gc.major_collections",
          Metrics.gauge "gc.heap_words" )
      in
      gc_handles := Some handles;
      handles

(* What a profiled span captures on entry.  [Gc.quick_stat]'s
   [minor_words] field only advances at minor collections in native
   code, so short spans would read a zero delta from it; the
   [Gc.minor_words] accessor counts the words in the live minor heap
   too and is accurate everywhere. *)
type gc_mark = { gm_minor_words : float; gm_stat : Gc.stat }

let gc_mark () = { gm_minor_words = Gc.minor_words (); gm_stat = Gc.quick_stat () }

(* Attach the GC delta since [m] to [sp]; called with [sp] still on the
   stack, so [!stack = [sp]] identifies a top-level span. *)
let gc_finish sp (m : gc_mark) =
  let g0 = m.gm_stat in
  let g1 = Gc.quick_stat () in
  let minor = Gc.minor_words () -. m.gm_minor_words in
  let major = g1.Gc.major_words -. g0.Gc.major_words in
  let minor_cols = g1.Gc.minor_collections - g0.Gc.minor_collections in
  let major_cols = g1.Gc.major_collections - g0.Gc.major_collections in
  sp.sp_attrs <-
    sp.sp_attrs
    @ [
        ("gc.minor_words", Float minor);
        ("gc.major_words", Float major);
        ("gc.minor_collections", Int minor_cols);
        ("gc.major_collections", Int major_cols);
        ("gc.heap_words", Int g1.Gc.heap_words);
      ];
  match !stack with
  | [ top ] when top == sp ->
      let cmw, cmj, cminc, cmajc, gheap = gc_metrics () in
      Metrics.add cmw (int_of_float minor);
      Metrics.add cmj (int_of_float major);
      Metrics.add cminc minor_cols;
      Metrics.add cmajc major_cols;
      Metrics.set gheap (float_of_int g1.Gc.heap_words)
  | _ -> ()

(* Run [f] inside a span named [name].  The span is recorded even when
   [f] raises, so the trace stays well-formed around failures. *)
let with_span ?attrs name f =
  if not !enabled then f ()
  else if not !profile_gc then begin
    let sp = start_span ?attrs name in
    Fun.protect ~finally:(fun () -> finish_span sp) f
  end
  else begin
    let sp = start_span ?attrs name in
    let m = gc_mark () in
    Fun.protect
      ~finally:(fun () ->
        gc_finish sp m;
        finish_span sp)
      f
  end

(* Like [with_span], but also returns the measured duration in
   milliseconds; the measurement happens whether or not tracing is
   enabled, and when it is, the recorded span duration is the very same
   measurement (no skew between the trace and reported timings). *)
let timed ?attrs name f =
  if not !enabled then begin
    let t0 = !clock () in
    let r = f () in
    (r, (!clock () -. t0) *. 1000.0)
  end
  else begin
    let sp = start_span ?attrs name in
    let m = if !profile_gc then Some (gc_mark ()) else None in
    let r =
      Fun.protect
        ~finally:(fun () ->
          (match m with Some m -> gc_finish sp m | None -> ());
          finish_span sp)
        f
    in
    (r, sp.sp_dur_us /. 1000.0)
  end

(* Finished top-level spans, in completion order (oldest retained
   first). *)
let roots () =
  let a = !ring in
  let cap = Array.length a in
  List.init !ring_len (fun i ->
      match a.((!ring_head + i) mod cap) with
      | Some sp -> sp
      | None -> assert false)

(* Graft span trees recorded elsewhere (typically in a worker process,
   shipped back over a pipe) into the current trace: under the innermost
   open span if there is one, else as top-level roots.  [attrs] — e.g.
   the worker's pid — are appended to each grafted root so merged traces
   stay attributable.  No-op when tracing is disabled. *)
let graft ?(attrs = []) spans =
  if !enabled then
    List.iter
      (fun sp ->
        if attrs <> [] then sp.sp_attrs <- sp.sp_attrs @ attrs;
        match !stack with
        | parent :: _ -> parent.sp_children <- sp :: parent.sp_children
        | [] -> push_root sp)
      spans

let fold_spans f acc =
  let rec go acc sp = List.fold_left go (f acc sp) sp.sp_children in
  List.fold_left go acc (roots ())

(* Total duration (ms) of every finished span with the given name,
   anywhere in the tree. *)
let total_ms name =
  fold_spans
    (fun acc sp -> if sp.sp_name = name then acc +. (sp.sp_dur_us /. 1000.0) else acc)
    0.0

let count name =
  fold_spans (fun acc sp -> if sp.sp_name = name then acc + 1 else acc) 0

let pp_value ppf = function
  | Int i -> Format.fprintf ppf "%d" i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%s" s
  | Bool b -> Format.fprintf ppf "%b" b

(* Human-readable span-tree summary (durations in ms), for [--trace]
   users who want the shape without loading chrome://tracing. *)
let pp_summary ppf () =
  let rec pp_span level sp =
    Format.fprintf ppf "%s%-*s %10.3f ms"
      (String.make (2 * level) ' ')
      (max 1 (32 - (2 * level)))
      sp.sp_name
      (sp.sp_dur_us /. 1000.0);
    if sp.sp_attrs <> [] then begin
      Format.fprintf ppf "  {";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Format.fprintf ppf ", ";
          Format.fprintf ppf "%s=%a" k pp_value v)
        sp.sp_attrs;
      Format.fprintf ppf "}"
    end;
    Format.fprintf ppf "@.";
    List.iter (pp_span (level + 1)) sp.sp_children
  in
  List.iter (pp_span 0) (roots ())

let print_summary () = pp_summary Format.err_formatter ()
