(* Fork-based worker pool, forked once per process.

   Concurrency without threads: workers are [Unix.fork] children that
   live for the whole process.  A process-global registry keeps the idle
   ones; [run ~jobs tasks] takes [min jobs n] of them and forks only the
   shortfall, so a program that always asks for the same width forks
   once, on its first run, and a [-j 1] program never forks.  A worker
   loops — read one framed task, run it, write back one framed reply
   carrying its outcome plus its telemetry — and goes back to the idle
   set when the run that took it ends.

   Tasks travel as closures: the worker is a fork of the same
   executable, so [Marshal.Closures] code pointers stay valid in it.
   Whatever a task captures is copied into the worker with it and must
   therefore be marshal-safe (no channels, no custom blocks without a
   serializer); a task that cannot be marshalled becomes
   [Failed "cannot send task: ..."] without reaching a worker.  A task
   reads process-global state as the worker has it — as of its fork,
   plus what earlier tasks in that worker did — not as the parent has
   it now; only the telemetry switches are sent along with every task.

   Wire protocol, both directions, led by the [protocol_tag]
   magic/version ("SEPARP4\n").  Parent -> worker: the marshalled
   [job] (the task, wrapped to run and marshal its own reply), then the
   marshalled [switches].  Worker -> parent: the reply, one marshalled
   ['r payload] (outcome + telemetry).  The parent validates the tag
   before unmarshalling; a stale or garbage-spewing worker surfaces as
   [Failed], never as a deserialization of garbage.

   Crash isolation is the point: a task that raises reports its
   exception in its reply; a worker that dies outright (segfault,
   [_exit], kill) fails *only its in-flight task* — the parent maps it
   to [Failed], reaps the corpse, and brings in a replacement to drain
   the remaining tasks.  EPIPE/ECONNRESET on the pool's own pipes
   (SIGPIPE is ignored for the duration of a run) are treated as worker
   death, not parent crashes.

   Lifecycle.  An [at_exit] hook that acts only in the process owning
   the registry closes each worker's task pipe, sends it SIGKILL and
   reaps it; it never waits for EOF alone, since another forked child
   may still hold the pipe.  A forked child (a worker, or any other
   fork) starts with an empty registry and never touches its parent's
   workers.  An exception escaping [run] kills and reaps the workers
   that run still had busy, so no stale reply waits in a pipe for the
   next run.  If the parent dies by a signal, its workers read EOF on
   their task pipes and exit.

   File-descriptor hygiene: pipes are opened [~cloexec:true] (so an
   exec'ing grandchild drops them), and — because cloexec is invisible
   to plain forks — every new worker closes the parent-side ends of all
   other workers' pipes it inherited.  Without this, a sibling's
   inherited write end would keep a dead worker's result pipe from ever
   reaching EOF.

   Telemetry: before each task a worker applies the parent's current
   trace/GC-profile/metrics/log switches, resets its trace and metrics,
   and ships the task's span roots, metric snapshot and captured log
   events in the reply; the parent grafts/merges/replays them back —
   pid-tagged — in *task* order.  Workers never write to the log sink
   they inherit (concurrent children interleaving partial lines would
   corrupt the NDJSON stream); they capture via [Log.capture_begin] and
   the parent replays through its own sink.  Merging by task index
   keeps the combined telemetry deterministic regardless of which
   worker ran which task. *)

module Trace = Separ_obs.Trace
module Metrics = Separ_obs.Metrics
module Log = Separ_obs.Log

type 'r result = Done of 'r | Failed of string

(* What a worker ships back per task: the outcome plus the telemetry
   recorded while running it. *)
type 'r payload =
  ('r, string) Stdlib.result
  * Trace.span list
  * Metrics.snapshot
  * Log.event list

(* A task as it crosses the wire: it runs the task and returns its
   marshalled ['r payload], so the worker loop is the same for every
   result type. *)
type job = unit -> string

(* The parent's telemetry switches at send time. *)
type switches = {
  sw_trace : bool;
  sw_profile_gc : bool;
  sw_metrics : bool;
  sw_log : Log.level option; (* [None]: the parent has no log sink *)
}

(* Wire protocol tag, written ahead of every message in both directions
   and checked before unmarshalling.  Marshal itself carries no protocol
   identity: feeding it bytes produced by a stale or mismatched worker
   binary deserializes garbage (or worse) — with the tag, the mismatch
   surfaces as an honest [Failed].  Bump the version whenever the
   message layout changes (SEPARP4: a marshalled closure and the
   telemetry switches out, a single outcome back). *)
let protocol_tag = "SEPARP4\n"
let tag_len = String.length protocol_tag

(* Validate a raw worker payload's leading tag; [Ok offset] is where the
   marshalled bytes start, [Error] the [Failed] message to report. *)
let check_protocol raw =
  if String.length raw < tag_len then Error "worker sent truncated payload"
  else if String.sub raw 0 tag_len <> protocol_tag then
    Error
      (Printf.sprintf "worker protocol mismatch (expected %S, got %S)"
         (String.trim protocol_tag)
         (String.trim (String.sub raw 0 tag_len)))
  else Ok tag_len

(* Introspection: what the last [run] actually did, for benches and
   tests asserting that forks scale with the pool, not the task count. *)
type run_stats = {
  rs_jobs : int; (* pool width the run was allowed *)
  rs_forks : int; (* processes forked, including respawns *)
  rs_respawns : int; (* replacement workers brought in after a death *)
  rs_tasks : int; (* tasks sent over the wire, one per message *)
}

let inline_stats = { rs_jobs = 1; rs_forks = 0; rs_respawns = 0; rs_tasks = 0 }

let last_stats = ref inline_stats
let last_run_stats () = !last_stats
let c_forks = Metrics.counter "pool.forks"
let c_respawns = Metrics.counter "pool.respawns"
let c_tasks = Metrics.counter "pool.tasks"

let run_task task =
  match task () with
  | v -> Ok v
  | exception e -> Error (Printexc.to_string e)

(* Inline path: no fork, but the same exception containment, so [-j 1]
   and [-j N] agree on results for deterministic tasks. *)
let run_inline tasks =
  List.map
    (fun task ->
      match run_task task with Ok v -> Done v | Error msg -> Failed msg)
    tasks

(* The closure that crosses the wire for [task].  It runs in the worker
   and collects the task's telemetry there; a result that cannot be
   marshalled (a closure, a channel) becomes the task's failure. *)
let job_of (task : unit -> 'r) : job =
 fun () ->
  let outcome = run_task task in
  let spans = Trace.roots () in
  let msnap = Metrics.snapshot () in
  let events = Log.capture_take () in
  match Marshal.to_string ((outcome, spans, msnap, events) : 'r payload) [] with
  | reply -> reply
  | exception e ->
      Marshal.to_string
        (( Error ("cannot return result: " ^ Printexc.to_string e),
           spans,
           msnap,
           events )
          : 'r payload)
        []

(* --- worker side ---------------------------------------------------------- *)

let apply_switches sw =
  if sw.sw_trace then Trace.enable () else Trace.disable ();
  Trace.set_profile_gc sw.sw_profile_gc;
  if sw.sw_metrics then Metrics.enable () else Metrics.disable ();
  match sw.sw_log with
  | Some lvl ->
      Log.set_level lvl;
      Log.capture_begin ()
  | None -> Log.capture_end ()

(* Serve tasks until the task pipe reaches EOF (the parent is gone).
   Exit statuses: 0 clean, 2 reply write failed or a task blew up
   outside its containment, 3 protocol mismatch on the task pipe. *)
let worker_main task_r result_w =
  let ic = Unix.in_channel_of_descr task_r in
  let oc = Unix.out_channel_of_descr result_w in
  let tag = Bytes.create tag_len in
  let rec serve () =
    match really_input ic tag 0 tag_len with
    | exception End_of_file -> 0
    | () ->
        if Bytes.to_string tag <> protocol_tag then 3
        else begin
          let job : job = Marshal.from_channel ic in
          let sw : switches = Marshal.from_channel ic in
          apply_switches sw;
          (* Only this task's own activity should ship back. *)
          Trace.reset ();
          Metrics.reset ();
          let reply = job () in
          output_string oc protocol_tag;
          output_string oc reply;
          flush oc;
          serve ()
        end
  in
  let status = match serve () with status -> status | exception _ -> 2 in
  (* [_exit], not [exit]: skip at_exit and inherited buffered output —
     a child must not replay the parent's pending stdout. *)
  Unix._exit status

(* --- the process-global registry ------------------------------------------ *)

type worker = {
  wk_pid : int;
  wk_task_w : Unix.file_descr; (* parent -> worker: framed tasks *)
  wk_res_r : Unix.file_descr; (* worker -> parent: framed replies *)
  wk_buf : Buffer.t; (* reply bytes, accumulated incrementally *)
  mutable wk_inflight : int option; (* index of the task on the wire *)
}

(* Between them, [idle] and [busy] hold every live worker, and so every
   parent-side pipe end. *)
type registry = {
  mutable owner : int; (* the process these workers belong to *)
  mutable idle : worker list;
  mutable busy : worker list; (* taken by the run in progress *)
}

let reg = { owner = Unix.getpid (); idle = []; busy = [] }

(* The registry of this process.  A forked child finds its parent's
   entries in its copy of [reg]; those workers are not its own, so it
   starts over with none. *)
let registry () =
  let pid = Unix.getpid () in
  if reg.owner <> pid then begin
    reg.owner <- pid;
    reg.idle <- [];
    reg.busy <- []
  end;
  reg

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Drop a worker from the registry and close its pipes.  Closing the
   task pipe is also the worker's signal to exit. *)
let forget wk =
  reg.idle <- List.filter (fun w -> w != wk) reg.idle;
  reg.busy <- List.filter (fun w -> w != wk) reg.busy;
  close_quietly wk.wk_task_w;
  close_quietly wk.wk_res_r

let kill_and_reap wk =
  forget wk;
  (try Unix.kill wk.wk_pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (waitpid_retry wk.wk_pid)

let () =
  at_exit (fun () ->
      if reg.owner = Unix.getpid () then
        List.iter kill_and_reap (reg.busy @ reg.idle))

(* Fork a worker and register it as busy. *)
let spawn () =
  let task_r, task_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  (* Flush before forking or the child inherits (and could replay)
     pending buffered output. *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* Drop every inherited parent-side end: a sibling's write fd
         surviving in this process would hold that sibling's pipes open
         past its death.  The log sink is the parent's too. *)
      List.iter
        (fun w ->
          close_quietly w.wk_task_w;
          close_quietly w.wk_res_r)
        (reg.busy @ reg.idle);
      Unix.close task_w;
      Unix.close res_r;
      Log.close ();
      ignore (registry ());
      worker_main task_r res_w
  | pid ->
      Unix.close task_r;
      Unix.close res_w;
      Metrics.incr c_forks;
      let wk =
        {
          wk_pid = pid;
          wk_task_w = task_w;
          wk_res_r = res_r;
          wk_buf = Buffer.create 4096;
          wk_inflight = None;
        }
      in
      reg.busy <- wk :: reg.busy;
      wk
  | exception e ->
      List.iter close_quietly [ task_r; task_w; res_r; res_w ];
      raise e

(* --- parent side ---------------------------------------------------------- *)

let status_string = function
  | Unix.WEXITED code ->
      Printf.sprintf "worker exited with status %d mid-task" code
  | Unix.WSIGNALED sg -> Printf.sprintf "worker killed by signal %d" sg
  | Unix.WSTOPPED sg -> Printf.sprintf "worker stopped by signal %d" sg

let rec select_retry fds =
  match Unix.select fds [] [] (-1.0) with
  | ready, _, _ -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_retry fds

let rec write_retry fd bytes off len =
  if len > 0 then
    match Unix.write fd bytes off len with
    | k -> write_retry fd bytes (off + k) (len - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        write_retry fd bytes off len

let current_switches () =
  {
    sw_trace = Trace.is_enabled ();
    sw_profile_gc = Trace.is_profiling_gc ();
    sw_metrics = Metrics.is_enabled ();
    sw_log = (if Log.is_enabled () then Some (Log.level ()) else None);
  }

let run_forked ~jobs tasks_list =
  let reg = registry () in
  let tasks = Array.of_list tasks_list in
  let n = Array.length tasks in
  let results = Array.make n (Failed "not run") in
  let telemetry = Array.make n None in
  let next_task = ref 0 in
  let forks = ref 0 and respawns = ref 0 in
  let switches = Marshal.to_bytes (current_switches ()) [] in
  (* read-fd -> worker, for this run's busy workers *)
  let live : (Unix.file_descr, worker) Hashtbl.t = Hashtbl.create jobs in
  (* An idle worker if there is one, else a fresh fork. *)
  let acquire () =
    let wk =
      match reg.idle with
      | wk :: rest ->
          reg.idle <- rest;
          reg.busy <- wk :: reg.busy;
          wk
      | [] ->
          incr forks;
          spawn ()
    in
    Hashtbl.replace live wk.wk_res_r wk;
    wk
  in
  let replacement () =
    incr respawns;
    Metrics.incr c_respawns;
    acquire ()
  in
  let release wk =
    Hashtbl.remove live wk.wk_res_r;
    reg.busy <- List.filter (fun w -> w != wk) reg.busy;
    reg.idle <- wk :: reg.idle
  in
  (* Remove a dead worker and reap it; [failed_inflight] is the task
     its death takes down, if any. *)
  let reap wk ~failed_inflight =
    Hashtbl.remove live wk.wk_res_r;
    forget wk;
    let status = waitpid_retry wk.wk_pid in
    Option.iter
      (fun i -> results.(i) <- Failed (status_string status))
      failed_inflight
  in
  let try_send wk msg =
    match
      List.iter (fun b -> write_retry wk.wk_task_w b 0 (Bytes.length b)) msg
    with
    | () -> true
    | exception Unix.Unix_error _ ->
        (* EPIPE and friends: the worker died before taking delivery.
           SIGPIPE is ignored for the whole run, so this is an error
           return, not a fatal signal. *)
        false
  in
  let tag = Bytes.of_string protocol_tag in
  (* The message for task [i], in the pieces written one after another. *)
  let encode i =
    match Marshal.to_bytes (job_of tasks.(i)) [ Marshal.Closures ] with
    | body -> Ok [ tag; body; switches ]
    | exception e -> Error ("cannot send task: " ^ Printexc.to_string e)
  in
  (* Hand the next task to a waiting worker, or return the worker to
     the idle set when the queue is drained.  A task that cannot be
     marshalled fails on the spot.  A worker found dead at send time
     never received the task, so the task goes to a replacement instead
     of failing — bounded retries in case fresh workers keep dying
     instantly. *)
  let rec assign ?(attempts = 0) wk =
    if !next_task >= n then release wk
    else begin
      let i = !next_task in
      match encode i with
      | Error msg ->
          results.(i) <- Failed msg;
          incr next_task;
          assign wk
      | Ok msg ->
          if try_send wk msg then begin
            incr next_task;
            wk.wk_inflight <- Some i;
            Metrics.incr c_tasks
          end
          else begin
            reap wk ~failed_inflight:None;
            if attempts >= 2 then begin
              results.(i) <- Failed "worker died before receiving task";
              incr next_task;
              if !next_task < n then assign (replacement ())
            end
            else assign ~attempts:(attempts + 1) (replacement ())
          end
    end
  in
  (* A worker died (EOF or read error on its reply pipe).  Its in-flight
     task — and only that task — becomes [Failed]; a replacement comes
     in if tasks remain. *)
  let on_death wk =
    let inflight = wk.wk_inflight in
    reap wk ~failed_inflight:inflight;
    if inflight <> None && !next_task < n then assign (replacement ())
  in
  (* A worker speaking the wrong protocol (stale binary, corrupt bytes)
     is killed rather than trusted further. *)
  let kill_protocol wk msg =
    Hashtbl.remove live wk.wk_res_r;
    kill_and_reap wk;
    Option.iter (fun i -> results.(i) <- Failed msg) wk.wk_inflight;
    if !next_task < n then assign (replacement ())
  in
  (* Try to complete one reply from the worker's buffer.  The exchange
     is strictly ping-pong (one reply per task, next task only after
     the reply), so the buffer holds at most one message; bytes beyond
     it would be read as the next run's reply, so they are a protocol
     breach. *)
  let drain wk =
    let raw = Buffer.contents wk.wk_buf in
    let len = String.length raw in
    if len >= tag_len then begin
      match check_protocol raw with
      | Error msg -> kill_protocol wk msg
      | Ok off ->
          if len >= off + Marshal.header_size then begin
            let header = Bytes.of_string (String.sub raw off Marshal.header_size) in
            let total = off + Marshal.total_size header 0 in
            if len >= total then begin
              match ((Marshal.from_string raw off : _ payload), wk.wk_inflight) with
              | (outcome, spans, msnap, events), Some i ->
                  results.(i) <-
                    (match outcome with
                    | Ok v -> Done v
                    | Error msg -> Failed msg);
                  telemetry.(i) <- Some (wk.wk_pid, spans, msnap, events);
                  wk.wk_inflight <- None;
                  Buffer.clear wk.wk_buf;
                  if len > total then
                    kill_protocol wk "worker replied with no task sent"
                  else assign wk
              | _, None -> kill_protocol wk "worker replied with no task sent"
              | exception _ -> kill_protocol wk "worker sent corrupt payload"
            end
          end
    end
  in
  let serve_run () =
    for _ = 1 to min jobs n do
      if !next_task < n then assign (acquire ())
    done;
    let chunk = Bytes.create 65536 in
    while Hashtbl.length live > 0 do
      let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) live [] in
      let ready = select_retry fds in
      List.iter
        (fun fd ->
          match Hashtbl.find_opt live fd with
          | None -> ()
          | Some wk -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> on_death wk
              | k ->
                  Buffer.add_subbytes wk.wk_buf chunk 0 k;
                  drain wk
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | exception Unix.Unix_error (_, _, _) ->
                  (* ECONNRESET/EIO from a dying worker: same as EOF *)
                  on_death wk))
        ready
    done
  in
  (* SIGPIPE off for the duration: a worker dying between select and a
     parent write must surface as EPIPE (handled above), not kill the
     whole analysis. *)
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      match prev_sigpipe with
      | Some h -> ( try Sys.set_signal Sys.sigpipe h with _ -> ())
      | None -> ())
    (fun () ->
      match serve_run () with
      | () -> ()
      | exception e ->
          (* A busy worker may still owe a reply; it must not be read
             as the answer to some later run's task. *)
          let bt = Printexc.get_raw_backtrace () in
          Hashtbl.iter (fun _ wk -> kill_and_reap wk) live;
          Hashtbl.reset live;
          Printexc.raise_with_backtrace e bt);
  (* Merge worker telemetry in task order so the combined trace,
     metric totals and replayed log stream are deterministic. *)
  Array.iter
    (function
      | None -> ()
      | Some (pid, spans, msnap, events) ->
          Trace.graft ~attrs:[ Trace.attr_int "pid" pid ] spans;
          List.iter
            (fun name ->
              Log.warn "metrics.merge_mismatch"
                ~fields:
                  [
                    ("metric", Trace.Str name);
                    ("worker_pid", Trace.Int pid);
                  ])
            (Metrics.merge msnap);
          Log.replay events)
    telemetry;
  last_stats :=
    {
      rs_jobs = jobs;
      rs_forks = !forks;
      rs_respawns = !respawns;
      rs_tasks = n;
    };
  Array.to_list results

let run ?(jobs = 1) tasks =
  if jobs <= 1 || List.compare_length_with tasks 1 <= 0 then begin
    last_stats := inline_stats;
    run_inline tasks
  end
  else run_forked ~jobs tasks

let map ?jobs f xs = run ?jobs (List.map (fun x () -> f x) xs)
