(* The fork-based worker pool: result ordering, exception and crash
   isolation, worker-telemetry merge (spans, metrics, log events), and
   the lifecycle of workers that live as long as their process. *)

module Pool = Separ_exec.Pool
module Trace = Separ_obs.Trace
module Metrics = Separ_obs.Metrics
module Log = Separ_obs.Log
module Json = Separ_report.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let done_values results =
  List.map
    (function Pool.Done v -> v | Pool.Failed msg -> Alcotest.fail msg)
    results

(* Results come back in task order, inline and forked alike. *)
let test_map_order () =
  let xs = [ 5; 3; 1; 4; 2 ] in
  let inline = Pool.map ~jobs:1 (fun x -> x * 10) xs in
  check_int "inline order" 50 (List.hd (done_values inline));
  Alcotest.(check (list int))
    "inline results" [ 50; 30; 10; 40; 20 ] (done_values inline);
  (* Stagger completion: later tasks finish first, results must still
     come back in task order. *)
  let forked =
    Pool.map ~jobs:3
      (fun x ->
        Unix.sleepf (0.01 *. float_of_int x);
        x * 10)
      xs
  in
  Alcotest.(check (list int))
    "forked results in task order" [ 50; 30; 10; 40; 20 ] (done_values forked)

(* A raising task yields [Failed] with the exception text; neighbours
   are unaffected.  Same containment inline and forked. *)
let test_exception_isolation () =
  let tasks =
    [
      (fun () -> 1);
      (fun () -> failwith "boom");
      (fun () -> 3);
    ]
  in
  List.iter
    (fun jobs ->
      match Pool.run ~jobs tasks with
      | [ Pool.Done 1; Pool.Failed msg; Pool.Done 3 ] ->
          check "exception text carried" true (contains ~affix:"boom" msg)
      | _ -> Alcotest.fail "expected Done/Failed/Done")
    [ 1; 2 ]

(* A worker that dies without reporting (here: [_exit]) is detected by
   its exit status and isolated. *)
let test_crash_isolation () =
  let tasks =
    [
      (fun () -> "ok-a");
      (fun () -> Unix._exit 7);
      (fun () -> "ok-b");
    ]
  in
  match Pool.run ~jobs:2 tasks with
  | [ Pool.Done "ok-a"; Pool.Failed msg; Pool.Done "ok-b" ] ->
      check "exit status reported" true (contains ~affix:"status 7" msg)
  | _ -> Alcotest.fail "expected crash isolated to its own task"

(* Workers are forked once per process: many more tasks than workers
   must be served by the same children, one task per message, and a
   run forks only what the idle set lacks — over a sequence of runs, no
   more than the widest pool requested plus respawns. *)
let test_worker_reuse () =
  let parent = Unix.getpid () in
  let results =
    Pool.map ~jobs:3 (fun _ -> Unix.getpid ()) (List.init 12 Fun.id)
  in
  let pids = done_values results in
  check_int "all tasks ran" 12 (List.length pids);
  List.iter
    (fun pid -> check "task ran in a worker, not the parent" true (pid <> parent))
    pids;
  let distinct = List.sort_uniq compare pids in
  check "at most 3 distinct worker pids for 12 tasks" true
    (List.length distinct <= 3);
  let stats = Pool.last_run_stats () in
  check "forks <= pool width, not task count" true (stats.Pool.rs_forks <= 3);
  check_int "one message per task" 12 stats.Pool.rs_tasks;
  check_int "no respawns in a crash-free run" 0 stats.Pool.rs_respawns;
  ignore (Pool.map ~jobs:2 (fun _ -> Unix.getpid ()) (List.init 4 Fun.id));
  check_int "a narrower run after it forks nothing" 0
    (Pool.last_run_stats ()).Pool.rs_forks

(* A worker dying mid-task fails that task — and only that task;
   completed and not-yet-assigned tasks are unaffected. *)
let test_midtask_crash_isolation () =
  let tasks =
    List.init 6 (fun i () -> if i = 2 then Unix._exit 9 else i * 10)
  in
  match Pool.run ~jobs:2 tasks with
  | [ Pool.Done 0; Pool.Done 10; Pool.Failed m2; Pool.Done 30; Pool.Done 40;
      Pool.Done 50 ] ->
      check "in-flight task reported mid-task death" true
        (contains ~affix:"mid-task" m2)
  | _ -> Alcotest.fail "expected exactly the crashed task (task 2) failed"

(* After a crash the pool respawns a replacement worker: the remaining
   task still runs, in a freshly forked process.  The first worker is
   parked on a slow task so the crash is detected while work remains
   undispatched, forcing the respawn path.  (jobs:1 would run inline —
   the crash must happen in a forked pool.) *)
let test_respawn_after_crash () =
  let tasks =
    [
      (fun () ->
        Unix.sleepf 0.3;
        Unix.getpid ());
      (fun () -> Unix._exit 5);
      (fun () -> Unix.getpid ());
    ]
  in
  (match Pool.run ~jobs:2 tasks with
  | [ Pool.Done p1; Pool.Failed _; Pool.Done p2 ] ->
      check "replacement is a fresh process" true (p1 <> p2)
  | _ -> Alcotest.fail "expected Done/Failed/Done around the crash");
  let stats = Pool.last_run_stats () in
  check_int "one respawn recorded" 1 stats.Pool.rs_respawns;
  check "forks <= pool width + respawns" true
    (stats.Pool.rs_forks <= 2 + stats.Pool.rs_respawns)

(* Worker-side metrics ship back and merge additively into the parent
   registry. *)
let test_worker_metrics_merged () =
  Metrics.enable ();
  Metrics.reset ();
  let c = Metrics.counter "test.pool_work" in
  let results =
    Pool.map ~jobs:2
      (fun n ->
        Metrics.add (Metrics.counter "test.pool_work") n;
        n)
      [ 1; 2; 3 ]
  in
  check_int "all done" 3 (List.length (done_values results));
  check_int "counter merged across workers" 6 (Metrics.counter_value c);
  Metrics.reset ();
  Metrics.disable ()

(* Worker-side spans are grafted into the parent trace, tagged with the
   worker pid. *)
let test_worker_spans_grafted () =
  Trace.enable ();
  Trace.reset ();
  let results =
    Pool.map ~jobs:2
      (fun n -> Trace.with_span "test.pool_span" (fun () -> n))
      [ 1; 2 ]
  in
  check_int "all done" 2 (List.length (done_values results));
  check_int "both worker spans present" 2 (Trace.count "test.pool_span");
  List.iter
    (fun sp ->
      check "grafted span is pid-tagged" true
        (List.mem_assoc "pid" sp.Trace.sp_attrs))
    (Trace.roots ());
  Trace.reset ();
  Trace.disable ()

let read_lines path =
  let ic = open_in path in
  let acc = ref [] in
  (try
     while true do
       let l = String.trim (input_line ic) in
       if l <> "" then acc := l :: !acc
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !acc

(* Worker-side log events buffer per task (workers must not write to
   the inherited sink fd), ship back in the reply payload, and replay
   through the parent's sink carrying the worker's own pid, the full
   envelope, and each worker's timestamps in emission order. *)
let test_worker_logs_shipped () =
  let path = Filename.temp_file "separ_test_pool_log" ".ndjson" in
  Log.to_file path;
  Log.reset ();
  Fun.protect
    ~finally:(fun () ->
      Log.close ();
      Log.reset ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* two events per task, a millisecond apart, so replay order
         shows in the timestamps *)
      let results =
        Pool.map ~jobs:2
          (fun n ->
            for _ = 1 to 2 do
              Unix.sleepf 0.001;
              Log.info "test.pool_log" ~fields:[ ("n", Trace.Int n) ]
            done;
            n)
          [ 1; 2; 3; 4 ]
      in
      check_int "all done" 4 (List.length (done_values results));
      Log.close ();
      let parent = Unix.getpid () in
      let events =
        List.filter_map
          (fun l ->
            let j = Json.parse l in
            if
              Option.bind (Json.member "event" j) Json.to_str
              = Some "test.pool_log"
            then Some j
            else None)
          (read_lines path)
      in
      check_int "all eight worker events replayed" 8 (List.length events);
      let last_ts = Hashtbl.create 4 in
      List.iter
        (fun j ->
          check "event is pid-tagged with a worker, not the parent" true
            (Json.member "pid" j <> Some (Json.Int parent));
          check "replayed event keeps its level" true
            (Option.bind (Json.member "level" j) Json.to_str = Some "info");
          match
            (Json.member "pid" j, Option.bind (Json.member "ts_us" j) Json.to_float)
          with
          | Some (Json.Int pid), Some ts ->
              check "per-worker timestamps monotone" true
                (ts >= Option.value ~default:neg_infinity
                        (Hashtbl.find_opt last_ts pid));
              Hashtbl.replace last_ts pid ts
          | _ -> Alcotest.fail "replayed event without integer pid and ts_us")
        events)

(* Observability survives a worker dying mid-task: events and GC
   metrics from every surviving task still arrive (through the
   respawned replacement included); only the crashed task's telemetry
   is lost. *)
let test_obs_survives_midtask_crash () =
  let path = Filename.temp_file "separ_test_crash_log" ".ndjson" in
  Trace.enable ();
  Metrics.enable ();
  Trace.set_profile_gc true;
  Trace.reset ();
  Metrics.reset ();
  Log.to_file path;
  Log.reset ();
  Fun.protect
    ~finally:(fun () ->
      Log.close ();
      Log.reset ();
      Trace.set_profile_gc false;
      Trace.disable ();
      Metrics.disable ();
      Trace.reset ();
      Metrics.reset ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* Each surviving task does 20 ms of work: the pool respawns only
         while tasks remain when it notices the death, and instant
         tasks would let the other worker drain the queue first. *)
      let tasks =
        List.init 5 (fun i () ->
            if i = 1 then Unix._exit 11
            else begin
              Unix.sleepf 0.02;
              Log.info "test.crash_log" ~fields:[ ("i", Trace.Int i) ];
              Trace.with_span "test.crash_span" (fun () ->
                  ignore
                    (Sys.opaque_identity (List.init 5_000 (fun j -> j * i))));
              i
            end)
      in
      let results = Pool.run ~jobs:2 tasks in
      let failed, completed =
        List.partition (function Pool.Failed _ -> true | _ -> false) results
      in
      check_int "exactly the crashed task failed" 1 (List.length failed);
      check_int "the other tasks completed" 4 (List.length completed);
      check "a replacement worker was respawned" true
        ((Pool.last_run_stats ()).Pool.rs_respawns >= 1);
      Log.close ();
      let parent = Unix.getpid () in
      let pids =
        List.filter_map
          (fun l ->
            let j = Json.parse l in
            if
              Option.bind (Json.member "event" j) Json.to_str
              = Some "test.crash_log"
            then
              match Json.member "pid" j with
              | Some (Json.Int p) -> Some p
              | _ -> None
            else None)
          (read_lines path)
      in
      check_int "surviving tasks' events all replayed" 4 (List.length pids);
      List.iter
        (fun p -> check "every event came from a worker" true (p <> parent))
        pids;
      check "worker GC deltas merged into the parent counters" true
        (Metrics.counter_value (Metrics.counter "gc.minor_words") > 0);
      check_int "surviving worker spans grafted despite the crash" 4
        (Trace.count "test.crash_span"))

(* --- lifecycle: workers live as long as the process that forked them -- *)

let distinct_pids results = List.sort_uniq compare (done_values results)

(* Wait up to 2 s for every pid to be gone. *)
let all_gone pids =
  let alive pid =
    match Unix.kill pid 0 with
    | () -> true
    | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  in
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec wait () =
    match List.filter alive pids with
    | [] -> true
    | _ when Unix.gettimeofday () > deadline -> false
    | _ ->
        Unix.sleepf 0.02;
        wait ()
  in
  wait ()

(* A child process runs [Pool.map ~jobs:2], writes its worker pids up a
   pipe, then ends by [exit 0], [exit 3] or an uncaught exception (the
   helper executable [pool_child.exe]).  Once the child is reaped, none
   of its workers may still exist — even though a grandchild still
   holds their task pipes open, so they never read EOF. *)
let test_no_worker_outlives_parent () =
  let helper =
    Filename.concat (Filename.dirname Sys.executable_name) "pool_child.exe"
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  List.iter
    (fun (ending, want) ->
      let r, w = Unix.pipe ~cloexec:true () in
      let pid =
        Unix.create_process helper [| helper; ending |] Unix.stdin w devnull
      in
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let line = input_line ic in
      let holder = int_of_string (input_line ic) in
      let status = snd (Unix.waitpid [] pid) in
      close_in ic;
      let workers = List.map int_of_string (String.split_on_char ' ' line) in
      let gone = all_gone workers in
      (try Unix.kill holder Sys.sigkill with Unix.Unix_error _ -> ());
      check_int (ending ^ ": the child ran two workers") 2
        (List.length workers);
      check (ending ^ ": exit status") true (status = Unix.WEXITED want);
      check (ending ^ ": every worker is gone within 2 s") true gone)
    [ ("exit0", 0); ("exit3", 3); ("raise", 2) ];
  Unix.close devnull

(* A forked child starts with no workers: it forks its own, and its exit
   takes down only those.  The parent's workers keep serving. *)
let test_forked_child_leaves_parent_workers () =
  let pids () =
    distinct_pids (Pool.map ~jobs:2 (fun _ -> Unix.getpid ()) [ 1; 2 ])
  in
  let mine = pids () in
  let r, w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      (* Never return into the test runner from here. *)
      (try
         Unix.close r;
         let theirs = pids () in
         let oc = Unix.out_channel_of_descr w in
         output_string oc
           (String.concat " " (List.map string_of_int theirs) ^ "\n");
         close_out oc
       with _ -> Unix._exit 1);
      exit 0
  | child ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let theirs =
        List.map int_of_string (String.split_on_char ' ' (input_line ic))
      in
      close_in ic;
      ignore (Unix.waitpid [] child);
      check_int "the child's pool ran both tasks" 2 (List.length theirs);
      check "the child forked workers of its own" true
        (List.for_all (fun p -> not (List.mem p mine)) theirs);
      check "the child's workers went with it" true (all_gone theirs);
      Alcotest.(check (list int))
        "the parent's workers still serve" mine (pids ());
      check_int "and nothing was forked" 0
        (Pool.last_run_stats ()).Pool.rs_forks

(* Workers apply the parent's telemetry switches per task: the same
   workers, last run with tracing and metrics off, trace and count once
   the parent turns both on. *)
let test_telemetry_follows_parent () =
  Trace.disable ();
  Metrics.disable ();
  let probe _ =
    Metrics.incr (Metrics.counter "test.pool_switch");
    Trace.with_span "test.pool_switch" (fun () ->
        (Unix.getpid (), Trace.is_enabled (), Metrics.is_enabled ()))
  in
  let off = done_values (Pool.map ~jobs:2 probe [ 1; 2 ]) in
  check "workers ran with tracing and metrics off" true
    (List.for_all (fun (_, t, m) -> (not t) && not m) off);
  Trace.enable ();
  Metrics.enable ();
  Trace.reset ();
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.reset ();
      Metrics.reset ();
      Trace.disable ();
      Metrics.disable ())
    (fun () ->
      let on = done_values (Pool.map ~jobs:2 probe [ 1; 2 ]) in
      check_int "no worker forked for the second run" 0
        (Pool.last_run_stats ()).Pool.rs_forks;
      Alcotest.(check (list int))
        "the same workers ran both runs"
        (List.sort_uniq compare (List.map (fun (p, _, _) -> p) off))
        (List.sort_uniq compare (List.map (fun (p, _, _) -> p) on));
      check "workers ran with tracing and metrics on" true
        (List.for_all (fun (_, t, m) -> t && m) on);
      check_int "worker spans grafted" 2 (Trace.count "test.pool_switch");
      List.iter
        (fun sp ->
          check "grafted span is pid-tagged" true
            (List.mem_assoc "pid" sp.Trace.sp_attrs))
        (Trace.roots ());
      check_int "worker counters merged" 2
        (Metrics.counter_value (Metrics.counter "test.pool_switch")))

(* A task that captures a channel cannot be marshalled: it fails alone,
   and the pool stays usable. *)
let test_unmarshallable_task () =
  let ic = open_in_bin Sys.executable_name in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      match
        Pool.run ~jobs:2
          [ (fun () -> 1); (fun () -> in_channel_length ic); (fun () -> 3) ]
      with
      | [ Pool.Done 1; Pool.Failed msg; Pool.Done 3 ] ->
          check "failure names the send" true
            (contains ~affix:"cannot send task" msg)
      | _ -> Alcotest.fail "expected only the channel-capturing task failed");
  Alcotest.(check (list int))
    "the next run succeeds" [ 2; 4 ]
    (done_values (Pool.map ~jobs:2 (fun x -> 2 * x) [ 1; 2 ]))

(* Successive runs at one width reuse the same workers. *)
let test_successive_runs_reuse () =
  let run () =
    distinct_pids
      (Pool.map ~jobs:2 (fun _ -> Unix.getpid ()) (List.init 6 Fun.id))
  in
  let first = run () in
  let second = run () in
  check_int "two workers served the first run" 2 (List.length first);
  Alcotest.(check (list int)) "the same worker pids" first second;
  check_int "the second run forked nothing" 0
    (Pool.last_run_stats ()).Pool.rs_forks

(* An exception escaping [run] (here: raised by a signal handler while
   the parent waits on its workers) kills and reaps the workers the run
   still had busy, so the next run reads no stale reply. *)
let test_escape_kills_busy_workers () =
  let path = Filename.temp_file "separ_test_pool_pid" "" in
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Exit))
  in
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = 0.0; it_value = 0.0 });
      Sys.set_signal Sys.sigalrm previous;
      Sys.remove path)
    (fun () ->
      let slow () =
        Out_channel.with_open_text path (fun oc ->
            output_string oc (string_of_int (Unix.getpid ())));
        Unix.sleep 3;
        1
      in
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = 0.0; it_value = 0.3 });
      (match Pool.run ~jobs:2 [ slow; (fun () -> 2) ] with
      | _ -> Alcotest.fail "expected the handler's exception to escape run"
      | exception Exit -> ());
      let busy =
        int_of_string (In_channel.with_open_text path In_channel.input_all)
      in
      check "the busy worker is gone" true (all_gone [ busy ]);
      Alcotest.(check (list int))
        "the next run gets its own replies" [ 10; 20 ]
        (done_values (Pool.map ~jobs:2 (fun x -> 10 * x) [ 1; 2 ])))

let tests =
  [
    Alcotest.test_case "map preserves task order" `Quick test_map_order;
    Alcotest.test_case "exception isolation" `Quick test_exception_isolation;
    Alcotest.test_case "worker crash isolation" `Quick test_crash_isolation;
    Alcotest.test_case "workers reused across tasks" `Quick test_worker_reuse;
    Alcotest.test_case "mid-task crash fails only in-flight task" `Quick
      test_midtask_crash_isolation;
    Alcotest.test_case "respawn after crash" `Quick test_respawn_after_crash;
    Alcotest.test_case "worker metrics merged" `Quick
      test_worker_metrics_merged;
    Alcotest.test_case "worker spans grafted with pid" `Quick
      test_worker_spans_grafted;
    Alcotest.test_case "worker log events shipped pid-tagged" `Quick
      test_worker_logs_shipped;
    Alcotest.test_case "logs and GC metrics survive mid-task crash" `Quick
      test_obs_survives_midtask_crash;
    Alcotest.test_case "no worker outlives its parent" `Quick
      test_no_worker_outlives_parent;
    Alcotest.test_case "forked child leaves the parent's workers" `Quick
      test_forked_child_leaves_parent_workers;
    Alcotest.test_case "telemetry switches follow the parent" `Quick
      test_telemetry_follows_parent;
    Alcotest.test_case "unmarshallable task fails alone" `Quick
      test_unmarshallable_task;
    Alcotest.test_case "successive runs reuse workers" `Quick
      test_successive_runs_reuse;
    Alcotest.test_case "an escaping exception kills busy workers" `Quick
      test_escape_kills_busy_workers;
  ]
