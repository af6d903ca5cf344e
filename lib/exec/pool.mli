(** A fork-based worker pool with crash isolation, forked once per run.

    [run ~jobs tasks] forks at most [jobs] worker processes {e once per
    call} and streams tasks to them over pipes, one task per message:
    each worker loops — receive a framed task index, run that task,
    reply with its outcome plus its telemetry — until the pool closes
    its task pipe.  N tasks therefore cost [min jobs N] forks, not N.
    The workers exit when the call returns; the next call forks again.

    A task that raises reports [Failed] with the exception text; a
    worker process that dies outright (segfault, [exit], OOM-kill)
    fails only the task it was running — the parent reaps it, maps
    that task to [Failed], and forks a replacement to drain the
    remaining tasks — so one pathological signature cannot abort an
    analysis.

    Results are returned in task order regardless of completion order,
    and worker telemetry (trace spans, metric counters, buffered log
    events) is merged back in deterministic task order, so a run at
    [-j N] is deterministic given deterministic tasks.

    With [jobs <= 1] (or a single task) everything runs inline in the
    parent — same result type, no forking — which keeps [-j 1] exactly
    as debuggable as the sequential code it replaces. *)

(** The outcome of one task: its value, or a description of how it
    failed (the exception it raised, or the worker's exit status). *)
type 'r result = Done of 'r | Failed of string

(** [run ~jobs tasks] executes every task and returns one result per
    task, in order.  [jobs] defaults to [1] (inline).

    Forked tasks must return marshal-safe values: no closures, no
    custom blocks.  Mutations a forked task makes to parent state are
    invisible to the parent (separate address spaces) — tasks
    communicate through their return value only. *)
val run : ?jobs:int -> (unit -> 'r) list -> 'r result list

(** [map ~jobs f xs] is [run ~jobs (List.map (fun x () -> f x) xs)]. *)
val map : ?jobs:int -> ('a -> 'r) -> 'a list -> 'r result list

(** {1 Introspection}

    What the last {!run} in this process actually did.  Benches and
    tests use this to assert that fork count scales with the pool
    width, not the task count, and that crash recovery respawned. *)

type run_stats = {
  rs_jobs : int;  (** pool width the run was allowed *)
  rs_forks : int;  (** processes forked, including respawns *)
  rs_respawns : int;  (** replacement workers forked after a death *)
  rs_tasks : int;  (** tasks sent over the wire, one per message *)
}

(** Stats of the most recent {!run} ([rs_forks = 0] for an inline
    run). *)
val last_run_stats : unit -> run_stats

(** {1 Wire protocol}

    Every message in both directions — parent→worker task indices and
    worker→parent replies — is prefixed with a magic/version tag; the
    receiving side refuses to unmarshal bytes that don't carry the
    expected tag (a stale or mismatched worker binary would otherwise
    deserialize garbage), surfacing the mismatch as [Failed]. *)

(** The tag current workers write ("SEPARP" + protocol version). *)
val protocol_tag : string

(** [check_protocol raw] validates a raw payload's leading tag:
    [Ok offset] is where the marshalled bytes start, [Error msg] the
    [Failed] message reported for a truncated or mismatched payload. *)
val check_protocol : string -> (int, string) Stdlib.result
