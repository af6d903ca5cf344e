(** A fork-based worker pool with crash isolation, forked once per
    process.

    Workers are forked children that live as long as the process.  A
    process-global registry keeps the idle ones: [run ~jobs tasks] takes
    [min jobs N] of them and forks only the shortfall, so repeated runs
    at one width fork once in all, and a [-j 1] program never forks.
    Tasks are streamed to the workers over pipes, one task per message:
    each worker loops — receive a marshalled task closure plus the
    parent's current telemetry switches, run the task, reply with its
    outcome plus its telemetry — and returns to the idle set when the
    run ends.

    Lifecycle: at exit the process that owns the workers closes their
    task pipes, kills and reaps them; a forked child starts with no
    workers and never touches its parent's; an exception escaping
    [run] kills and reaps that run's busy workers; and workers exit on
    EOF when their parent dies by a signal.

    A task that raises reports [Failed] with the exception text; a
    worker process that dies outright (segfault, [exit], OOM-kill)
    fails only the task it was running — the parent reaps it, maps
    that task to [Failed], and brings in a replacement to drain the
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

    Forked tasks are marshalled with [Marshal.Closures], so what they
    capture must be marshal-safe: no channels, no custom blocks without
    a serializer.  A task that cannot be marshalled comes back
    [Failed "cannot send task: ..."] and the run goes on.  Forked tasks
    must also return marshal-safe values (no closures, no custom
    blocks).  A forked task sees process-global state as its worker
    has it — as of the worker's fork plus what earlier tasks did there
    — and its own mutations of such state stay in the worker: tasks
    communicate through their captures and return value only. *)
val run : ?jobs:int -> (unit -> 'r) list -> 'r result list

(** [map ~jobs f xs] is [run ~jobs (List.map (fun x () -> f x) xs)]. *)
val map : ?jobs:int -> ('a -> 'r) -> 'a list -> 'r result list

(** {1 Introspection}

    What the last {!run} in this process actually did.  Benches and
    tests use this to assert that forks over a sequence of runs stay
    within the widest pool requested plus respawns, and that crash
    recovery brought in a replacement. *)

type run_stats = {
  rs_jobs : int;  (** pool width the run was allowed *)
  rs_forks : int;  (** processes forked by this run, including respawns *)
  rs_respawns : int;
      (** replacement workers brought in after a death, idle or forked *)
  rs_tasks : int;  (** tasks sent over the wire, one per message *)
}

(** Stats of the most recent {!run} ([rs_forks = 0] for an inline run,
    and for a run whose workers were all idle ones). *)
val last_run_stats : unit -> run_stats

(** {1 Wire protocol}

    Every message in both directions — parent→worker tasks (a closure
    marshalled with [Marshal.Closures], then the telemetry switches:
    tracing, GC profiling, metrics, log level) and worker→parent
    replies — is prefixed with a magic/version tag; the
    receiving side refuses to unmarshal bytes that don't carry the
    expected tag (a stale or mismatched worker binary would otherwise
    deserialize garbage), surfacing the mismatch as [Failed]. *)

(** The tag current workers write ("SEPARP" + protocol version). *)
val protocol_tag : string

(** [check_protocol raw] validates a raw payload's leading tag:
    [Ok offset] is where the marshalled bytes start, [Error msg] the
    [Failed] message reported for a truncated or mismatched payload. *)
val check_protocol : string -> (int, string) Stdlib.result
