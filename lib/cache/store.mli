(** Persistent content-addressed analysis cache.

    A store is a directory of tiers (subdirectories); each entry is one
    file named by the MD5 of its key.  Entries are self-validating — a
    fixed magic string, a format version, the digest of the payload, and
    the marshalled payload — so a truncated, garbled, or
    version-mismatched entry is detected on read, deleted, and reported
    as a miss; the store never raises on a corrupt entry.  Writes go
    through a temporary file in the same directory followed by an atomic
    [Sys.rename], so concurrent writers race benignly: readers see
    either no entry or a complete one.

    Eviction is size-capped LRU: hits touch the entry's access time, and
    after each write the store scans the tiers and removes
    least-recently-used entries until the total payload size is back
    under the cap. *)

type t

(** [open_ ~dir ?max_bytes ()] opens (creating directories as needed) a
    store rooted at [dir].  [max_bytes], when given, caps the total size
    of the store; the cap is enforced after each [store].

    Opening also sweeps orphaned temporary publish files: a process
    killed between writing its [".tmp.*"] file and the atomic rename
    leaks the file, which no reader ever sees and no eviction scan
    counts.  Any tmp file whose embedded owner pid is no longer alive
    (or unparseable) is deleted and counted under ["tmp_swept"];
    in-flight publishes of live processes are left untouched. *)
val open_ : dir:string -> ?max_bytes:int -> unit -> t

val dir : t -> string

(** [mkdir_p path] creates directory [path] and any missing parents. *)
val mkdir_p : string -> unit

(** [find t ~tier ~key] returns the cached value for [key], or [None]
    on a miss (absent, truncated, garbled, or wrong-digest entry — the
    latter kinds are deleted and counted as corrupt).  The value is
    deserialized with [Marshal]; callers must guarantee — via version
    strings folded into [key] — that the stored value has the expected
    type. *)
val find : t -> tier:string -> key:string -> 'a option

(** [store t ~tier ~key v] writes [v] under [key] atomically and then
    enforces the size cap. *)
val store : t -> tier:string -> key:string -> 'a -> unit

(** Counters accumulated by this handle since [open_], as a list sorted
    by name: per-tier ["<tier>.hits"] / ["<tier>.misses"], and global
    ["corrupt"], ["evictions"], ["stores"], ["tmp_swept"]. *)
val stats : t -> (string * int) list

(** [credit t ~tier ~hits ~misses ~stores] adds lookups and stores
    made through a copy of [t] — a forked worker's, whose counters the
    parent never sees — to [t]'s counters.  Metric counters are left
    alone: the worker pool merges those back itself. *)
val credit : t -> tier:string -> hits:int -> misses:int -> stores:int -> unit

(** Total payload bytes currently on disk (sum of entry file sizes). *)
val size_bytes : t -> int

(** Number of entries in [tier]. *)
val entry_count : t -> tier:string -> int
