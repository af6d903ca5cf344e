(* Fork-based worker pool, forked once per run.

   Concurrency without threads: [run ~jobs tasks] forks at most [jobs]
   children *once per run* and streams task indices to them over pipes,
   one task per message.  A worker loops — read a framed index, run
   that task, write back one framed reply carrying its outcome plus its
   telemetry — until its task pipe reaches EOF, so N tasks cost
   min(jobs, N) forks, not N.  Tasks are closures, which never cross
   the process boundary: each child inherits the full task array at
   fork time and the wire carries only indices one way and marshalled
   results the other.

   Wire protocol, both directions: the [protocol_tag] magic/version
   ("SEPARP3\n") followed by one [Marshal] value — [int] (the task
   index) parent→worker, ['r payload] (outcome + telemetry)
   worker→parent.  The parent validates the tag before unmarshalling;
   a stale or garbage-spewing worker surfaces as [Failed], never as a
   deserialization of garbage.

   Crash isolation is the point: a task that raises reports its
   exception in its reply; a worker that dies outright (segfault,
   [_exit], kill) fails *only its in-flight task* — the parent maps it
   to [Failed], reaps the corpse, and forks a replacement to drain the
   remaining tasks.  EPIPE/ECONNRESET on the pool's own pipes (SIGPIPE
   is ignored for the duration of the run) are treated as worker death,
   not parent crashes.

   File-descriptor hygiene: pipes are opened [~cloexec:true] (so an
   exec'ing grandchild drops them), and — because cloexec is invisible
   to plain forks — every child explicitly closes the parent-side ends
   of all sibling pipes it inherited.  Without this, a sibling's
   inherited write end would keep a dead worker's result pipe from ever
   reaching EOF.

   Telemetry: workers reset trace/metrics/log state per task and ship
   the task's span roots, metric snapshot and buffered log events in
   the reply; the parent grafts/merges/replays them back — pid-tagged —
   in *task* order.  Workers never write to the log sink fd they
   inherit (concurrent children interleaving partial lines would
   corrupt the NDJSON stream); they buffer via [Log.capture_begin] and
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

(* Wire protocol tag, written ahead of every marshalled message in both
   directions and checked before unmarshalling.  Marshal itself carries
   no protocol identity: feeding it bytes produced by a stale or
   mismatched worker binary deserializes garbage (or worse) — with the
   tag, the mismatch surfaces as an honest [Failed].  Bump the version
   whenever the message layout changes (SEPARP3: one task per message,
   an [int] index out and a single outcome back). *)
let protocol_tag = "SEPARP3\n"
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
  rs_respawns : int; (* replacement workers forked after a death *)
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

(* --- worker side ---------------------------------------------------------- *)

(* Serve tasks until the task pipe reaches EOF (the parent's shutdown
   signal).  Exit statuses: 0 clean, 2 reply write failed or a task
   blew up outside its containment, 3 protocol mismatch on the task
   pipe. *)
let worker_main tasks task_r result_w =
  let ic = Unix.in_channel_of_descr task_r in
  let oc = Unix.out_channel_of_descr result_w in
  let tag = Bytes.create tag_len in
  let rec serve () =
    match really_input ic tag 0 tag_len with
    | exception End_of_file -> 0
    | () ->
        if Bytes.to_string tag <> protocol_tag then 3
        else begin
          let i : int = Marshal.from_channel ic in
          (* Only this task's own activity should ship back; capture
             mode also keeps this child off the parent's log sink. *)
          Trace.reset ();
          Metrics.reset ();
          Log.capture_begin ();
          let outcome = run_task tasks.(i) in
          let payload : _ payload =
            (outcome, Trace.roots (), Metrics.snapshot (), Log.capture_take ())
          in
          output_string oc protocol_tag;
          Marshal.to_channel oc payload [];
          flush oc;
          serve ()
        end
  in
  let status = match serve () with status -> status | exception _ -> 2 in
  (* [_exit], not [exit]: skip at_exit and inherited buffered output —
     a child must not replay the parent's pending stdout. *)
  Unix._exit status

(* --- parent side ---------------------------------------------------------- *)

let status_string = function
  | Unix.WEXITED code ->
      Printf.sprintf "worker exited with status %d mid-task" code
  | Unix.WSIGNALED sg -> Printf.sprintf "worker killed by signal %d" sg
  | Unix.WSTOPPED sg -> Printf.sprintf "worker stopped by signal %d" sg

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

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

type worker = {
  wk_pid : int;
  wk_task_w : Unix.file_descr; (* parent -> worker: framed task indices *)
  wk_res_r : Unix.file_descr; (* worker -> parent: framed replies *)
  wk_buf : Buffer.t; (* reply bytes, accumulated incrementally *)
  mutable wk_inflight : int option; (* index of the task on the wire *)
  mutable wk_closed : bool; (* task pipe closed (shutdown sent) *)
}

let run_forked ~jobs tasks_list =
  let tasks = Array.of_list tasks_list in
  let n = Array.length tasks in
  let results = Array.make n (Failed "not run") in
  let telemetry = Array.make n None in
  let next_task = ref 0 in
  let forks = ref 0 and respawns = ref 0 in
  (* Every parent-side pipe end currently open, so each fork can close
     the sibling fds it inherited (cloexec only helps across exec). *)
  let parent_fds : Unix.file_descr list ref = ref [] in
  let close_parent_fd fd =
    parent_fds := List.filter (fun f -> f <> fd) !parent_fds;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  (* read-fd -> worker, for the live children *)
  let live : (Unix.file_descr, worker) Hashtbl.t = Hashtbl.create jobs in
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
           surviving in this process would hold that sibling's pipes
           open past its death. *)
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          !parent_fds;
        Unix.close task_w;
        Unix.close res_r;
        worker_main tasks task_r res_w
    | pid ->
        Unix.close task_r;
        Unix.close res_w;
        parent_fds := task_w :: res_r :: !parent_fds;
        incr forks;
        Metrics.incr c_forks;
        let wk =
          {
            wk_pid = pid;
            wk_task_w = task_w;
            wk_res_r = res_r;
            wk_buf = Buffer.create 4096;
            wk_inflight = None;
            wk_closed = false;
          }
        in
        Hashtbl.replace live res_r wk;
        wk
  in
  let shutdown wk =
    (* EOF on the task pipe is the worker's signal to exit cleanly. *)
    if not wk.wk_closed then begin
      wk.wk_closed <- true;
      close_parent_fd wk.wk_task_w
    end
  in
  (* Remove a worker and reap it; [failed_inflight] is the task its
     death takes down, if any. *)
  let reap wk ~failed_inflight =
    Hashtbl.remove live wk.wk_res_r;
    close_parent_fd wk.wk_res_r;
    shutdown wk;
    let status = waitpid_retry wk.wk_pid in
    Option.iter
      (fun i -> results.(i) <- Failed (status_string status))
      failed_inflight
  in
  let try_send wk i =
    let body = Marshal.to_bytes (i : int) [] in
    let msg = Bytes.cat (Bytes.of_string protocol_tag) body in
    match write_retry wk.wk_task_w msg 0 (Bytes.length msg) with
    | () -> true
    | exception Unix.Unix_error _ ->
        (* EPIPE and friends: the worker died before taking delivery.
           SIGPIPE is ignored for the whole run, so this is an error
           return, not a fatal signal. *)
        false
  in
  (* Hand the next task to an idle worker, or shut it down when the
     queue is drained.  A worker found dead at send time never received
     the task, so the task goes to a replacement instead of failing —
     bounded retries in case forked children keep dying instantly. *)
  let rec assign ?(attempts = 0) wk =
    if !next_task >= n then shutdown wk
    else begin
      let i = !next_task in
      if try_send wk i then begin
        incr next_task;
        wk.wk_inflight <- Some i;
        Metrics.incr c_tasks
      end
      else begin
        reap wk ~failed_inflight:None;
        if attempts >= 2 then begin
          results.(i) <- Failed "worker died before receiving task";
          incr next_task;
          if !next_task < n then begin
            incr respawns;
            Metrics.incr c_respawns;
            assign (spawn ())
          end
        end
        else begin
          incr respawns;
          Metrics.incr c_respawns;
          assign ~attempts:(attempts + 1) (spawn ())
        end
      end
    end
  in
  (* A worker died (EOF or read error on its reply pipe).  Its in-flight
     task — and only that task — becomes [Failed]; a replacement is
     forked if tasks remain. *)
  let on_death wk =
    let inflight = wk.wk_inflight in
    reap wk ~failed_inflight:inflight;
    if inflight <> None && !next_task < n then begin
      incr respawns;
      Metrics.incr c_respawns;
      assign (spawn ())
    end
  in
  (* A worker speaking the wrong protocol (stale binary, corrupt bytes)
     is killed rather than trusted further. *)
  let kill_protocol wk msg =
    let inflight = wk.wk_inflight in
    Hashtbl.remove live wk.wk_res_r;
    close_parent_fd wk.wk_res_r;
    shutdown wk;
    (try Unix.kill wk.wk_pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (waitpid_retry wk.wk_pid);
    Option.iter (fun i -> results.(i) <- Failed msg) inflight;
    if !next_task < n then begin
      incr respawns;
      Metrics.incr c_respawns;
      assign (spawn ())
    end
  in
  (* Try to complete one reply from the worker's buffer.  The exchange
     is strictly ping-pong (one reply per task, next task only after
     the reply), so the buffer holds at most one message. *)
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
              match
                ((Marshal.from_string raw off : _ payload), wk.wk_inflight)
              with
              | (outcome, spans, msnap, events), Some i ->
                  results.(i) <-
                    (match outcome with
                    | Ok v -> Done v
                    | Error msg -> Failed msg);
                  telemetry.(i) <- Some (wk.wk_pid, spans, msnap, events);
                  wk.wk_inflight <- None;
                  Buffer.clear wk.wk_buf;
                  if len > total then
                    Buffer.add_string wk.wk_buf
                      (String.sub raw total (len - total));
                  assign wk
              | _, None -> kill_protocol wk "worker replied with no task sent"
              | exception _ -> kill_protocol wk "worker sent corrupt payload"
            end
          end
    end
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
      for _ = 1 to min jobs n do
        assign (spawn ())
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
      done);
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
