(** Persistent content-addressed analysis cache.

    A store is one flat directory: each entry is the file
    [<root>/<md5 hex of key>].  Entries are self-validating — a fixed
    magic string, a format version, the digest of the payload, and the
    marshalled payload — so a truncated, garbled, or version-mismatched
    entry is detected on read, deleted, and reported as a miss; the
    store never raises on a corrupt entry.  Writes go through a
    temporary file [<root>/.tmp.<md5 hex>.<pid>] followed by an atomic
    [Sys.rename], so concurrent writers race benignly: readers see
    either no entry or a complete one.

    The store only ever touches its own files: regular files directly
    in the root named by 32 lowercase hex digits (entries) or
    [.tmp.<32 hex>.<pid>] (publishes in flight).  Any other file, and
    every subdirectory, is never read, counted, or deleted.

    Eviction is size-capped LRU: hits touch the entry's access time, and
    after each write the store removes least-recently-used entries until
    the total entry size is back under the cap. *)

type t

(** [open_ ~dir ?max_bytes ()] opens (creating directories as needed) a
    store rooted at [dir].  [max_bytes], when given, caps the total size
    of the store; the cap is enforced after each [store].

    Opening also sweeps orphaned temporary publish files: a process
    killed between writing its tmp file and the atomic rename leaks the
    file, which no reader ever sees and no eviction scan counts.  Any
    tmp file whose owner pid is no longer alive is deleted and counted
    under ["tmp_swept"]; in-flight publishes of live processes are left
    untouched.

    @raise Sys_error ["<dir>: <reason>"] if [dir] cannot be created or
    is not a directory. *)
val open_ : dir:string -> ?max_bytes:int -> unit -> t

val dir : t -> string

(** [mkdir_p path] creates directory [path] and any missing parents.
    @raise Sys_error ["<path>: <reason>"] if one cannot be created. *)
val mkdir_p : string -> unit

(** [find t ~key] returns the cached value for [key], or [None] on a
    miss (absent, truncated, garbled, or wrong-digest entry — the
    latter kinds are deleted and counted as corrupt).  The value is
    deserialized with [Marshal]; callers must guarantee — via version
    strings folded into [key] — that the stored value has the expected
    type. *)
val find : t -> key:string -> 'a option

(** [store t ~key v] writes [v] under [key] atomically and then enforces
    the size cap.  Returns whether the entry was published; a failed
    write (say, the root is gone) is dropped and counts nothing. *)
val store : t -> key:string -> 'a -> bool

(** Counters accumulated by this handle since [open_], as a list sorted
    by name: ["corrupt"], ["evictions"], ["hits"], ["misses"],
    ["stores"], ["tmp_swept"]. *)
val stats : t -> (string * int) list

(** [credit t deltas] adds how far the counters of a copy of [t] moved
    — a forked worker's, whose counters the parent never sees — to
    [t]'s counters.  [deltas] names counters as [stats] does.  Metric
    counters are left alone: the worker pool merges those back itself.
    @raise Invalid_argument on a name [stats] does not list. *)
val credit : t -> (string * int) list -> unit

(** Total bytes of the entries currently on disk. *)
val size_bytes : t -> int

(** Number of entries currently on disk. *)
val entry_count : t -> int
