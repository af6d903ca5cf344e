(* Structured event log: leveled NDJSON events streamed to a file sink.

   One event = one line of flat JSON with a fixed envelope —
   [ts_us] (clock microseconds, monotone with the injected [Trace]
   clock), [level], [event] (machine-readable [subsystem.event] name),
   [pid], optionally [span] (the innermost open [Trace] span id, for
   correlating events with the phase that emitted them) — plus the
   caller's fields, rendered by [Json] on one line.

   Cost discipline mirrors [Trace]/[Metrics]: with no sink installed
   and no capture on, every [info]/[warn]/... call is two tests.

   Repeated events are rate limited per event name: within a sliding
   window (default 1 s of clock time) only the first [limit] emissions
   of a name are written; the rest are counted and the count rides out
   on the next admitted event of that name as a ["suppressed"] field, so
   a hot loop cannot flood the sink but the loss is still visible.

   Worker processes of [Separ_exec.Pool] must not write to the sink fd
   they inherit (interleaved partial lines from concurrent children
   would corrupt the stream).  Instead a worker closes its copy and,
   while its parent logs, switches to capture mode ([capture_begin],
   which needs no sink): events buffer in memory, ship back to the parent
   inside the task reply (they are plain marshal-safe records), and
   the parent [replay]s them through its own sink — already pid-tagged,
   since the pid is stamped at emission time. *)

type level = Debug | Info | Warn | Error

let level_priority = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type event = {
  ev_ts_us : float;
  ev_level : level;
  ev_event : string; (* machine-readable name, [subsystem.event] *)
  ev_pid : int;
  ev_span : int option; (* innermost open Trace span at emission *)
  ev_fields : (string * Trace.value) list;
  ev_suppressed : int; (* rate-limited repeats dropped before this one *)
}

(* --- sink + state --------------------------------------------------------- *)

let sink : out_channel option ref = ref None
let threshold = ref Info
let capturing = ref false
let captured : event list ref = ref [] (* reversed *)
let emitted = ref 0
let suppressed_total = ref 0

let set_level lvl = threshold := lvl
let level () = !threshold

(* Open [path] for append (append keeps device files like /dev/stderr
   and pre-existing logs well-behaved) and make it the sink. *)
let rec to_file path =
  close ();
  sink := Some (open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path)

and close () =
  match !sink with
  | Some oc ->
      sink := None;
      (try flush oc with Sys_error _ -> ());
      (try close_out oc with Sys_error _ -> ())
  | None -> ()

let is_enabled () = !sink <> None

(* --- rate limiting -------------------------------------------------------- *)

type rl_state = {
  mutable rl_window_start : float; (* us *)
  mutable rl_count : int; (* emissions admitted in the current window *)
  mutable rl_suppressed : int; (* dropped since the last admitted one *)
}

let default_rate_limit = 200
let rate_limit = ref default_rate_limit
let rate_window_us = ref 1e6
let limiters : (string, rl_state) Hashtbl.t = Hashtbl.create 64

(* [n <= 0] disables rate limiting entirely. *)
let set_rate_limit ?(window_s = 1.0) n =
  rate_limit := n;
  rate_window_us := window_s *. 1e6;
  Hashtbl.reset limiters

(* Returns [Some suppressed_before] when the event is admitted. *)
let admit name ts =
  if !rate_limit <= 0 then Some 0
  else begin
    let st =
      match Hashtbl.find_opt limiters name with
      | Some st -> st
      | None ->
          let st = { rl_window_start = ts; rl_count = 0; rl_suppressed = 0 } in
          Hashtbl.replace limiters name st;
          st
    in
    if ts -. st.rl_window_start >= !rate_window_us || ts < st.rl_window_start
    then begin
      st.rl_window_start <- ts;
      st.rl_count <- 0
    end;
    if st.rl_count >= !rate_limit then begin
      st.rl_suppressed <- st.rl_suppressed + 1;
      None
    end
    else begin
      st.rl_count <- st.rl_count + 1;
      let s = st.rl_suppressed in
      st.rl_suppressed <- 0;
      Some s
    end
  end

(* --- emission -------------------------------------------------------------- *)

let write_event oc ev =
  let envelope =
    ("ts_us", Json.Float ev.ev_ts_us)
    :: ("level", Json.Str (level_name ev.ev_level))
    :: ("event", Json.Str ev.ev_event)
    :: ("pid", Json.Int ev.ev_pid)
    :: (match ev.ev_span with Some id -> [ ("span", Json.Int id) ] | None -> [])
    @ if ev.ev_suppressed > 0 then [ ("suppressed", Json.Int ev.ev_suppressed) ]
      else []
  in
  let fields =
    List.map (fun (k, v) -> (k, Trace.json_of_value v)) ev.ev_fields
  in
  output_string oc
    (Json.to_string ~indent:false (Json.Obj (envelope @ fields)));
  output_char oc '\n';
  flush oc

let log lvl ?(fields = []) name =
  match !sink with
  | None when not !capturing -> () (* the disabled path *)
  | sink ->
      if level_priority lvl >= level_priority !threshold then begin
        let ts = Trace.now_us () in
        match admit name ts with
        | None ->
            Stdlib.incr suppressed_total
        | Some suppressed ->
            let ev =
              {
                ev_ts_us = ts;
                ev_level = lvl;
                ev_event = name;
                ev_pid = Unix.getpid ();
                ev_span = Trace.current_span_id ();
                ev_fields = fields;
                ev_suppressed = suppressed;
              }
            in
            Stdlib.incr emitted;
            if !capturing then captured := ev :: !captured
            else Option.iter (fun oc -> write_event oc ev) sink
      end

let debug ?fields name = log Debug ?fields name
let info ?fields name = log Info ?fields name
let warn ?fields name = log Warn ?fields name
let error ?fields name = log Error ?fields name

(* --- worker capture / parent replay ---------------------------------------- *)

(* Divert emissions to an in-memory buffer (and clear any previous
   buffer), whether or not this process has a sink.  A pool worker
   calls this before each task when its parent logs: the sink channel it
   inherited belongs to the parent. *)
let capture_begin () =
  capturing := true;
  captured := []

(* Stop capturing and drop the buffer: emissions go to the sink again,
   or nowhere without one. *)
let capture_end () =
  capturing := false;
  captured := []

(* Captured events in emission order; the buffer is cleared. *)
let capture_take () =
  let evs = List.rev !captured in
  captured := [];
  evs

(* Write worker events through this process's sink, preserving their
   original timestamps, pids and span ids. *)
let replay evs =
  match !sink with
  | None -> ()
  | Some oc -> List.iter (fun ev -> write_event oc ev) evs

(* --- accounting / test support --------------------------------------------- *)

(* (events written or captured, events dropped by the rate limiter)
   since the last [reset]. *)
let stats () = (!emitted, !suppressed_total)

(* Clear limiter windows, counters and any captured buffer; the sink,
   level and rate-limit configuration stay as they are. *)
let reset () =
  Hashtbl.reset limiters;
  emitted := 0;
  suppressed_total := 0;
  captured := []
