(* Content-addressed on-disk store: see store.mli for the contract.

   Entry file layout:

     magic   8 bytes   "SEPARC1\n" — includes the format version, so a
                       layout change invalidates every old entry
     digest 16 bytes   MD5 of the payload that follows
     payload           Marshal.to_string of the cached value

   Anything that fails to parse back — short file, wrong magic, digest
   mismatch, Marshal failure — is deleted and counted as corrupt, and
   the lookup degrades to a miss so the caller recomputes and rewrites. *)

module Metrics = Separ_obs.Metrics

let c_hits = Metrics.counter "cache.hits"
let c_misses = Metrics.counter "cache.misses"
let c_stores = Metrics.counter "cache.stores"
let c_evictions = Metrics.counter "cache.evictions"
let c_corrupt = Metrics.counter "cache.corrupt"
let c_swept = Metrics.counter "cache.tmp_swept"

let magic = "SEPARC1\n"
let magic_len = String.length magic
let digest_len = 16

type t = {
  root : string;
  max_bytes : int option;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable corrupt : int;
  mutable tmp_swept : int;
}

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with
      | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
      | Unix.Unix_error (e, _, _) ->
          raise (Sys_error (path ^ ": " ^ Unix.error_message e))
    end
  in
  go path

let remove_noerr path = try Sys.remove path with Sys_error _ -> ()

(* The only names the store ever makes: an entry is the 32 lowercase
   hex digits of its key's MD5, and a publish in flight is
   ".tmp.<entry>.<pid>".  Every other name in the root is someone
   else's. *)
let is_entry_name f =
  String.length f = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) f

(* The owner pid of a tmp file the store made; [None] for any other
   name. *)
let tmp_owner f =
  match String.split_on_char '.' f with
  | [ ""; "tmp"; entry; pid ]
    when is_entry_name entry && pid <> ""
         && String.for_all (function '0' .. '9' -> true | _ -> false) pid ->
      int_of_string_opt pid
  | _ -> None

let pid_alive pid =
  pid > 0
  &&
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.EPERM, _, _) -> true (* exists, not ours *)
  | exception Unix.Unix_error _ -> false

(* The root's file names; none if the root has gone. *)
let names t = try Sys.readdir t.root with Sys_error _ -> [||]

(* A process killed between creating its tmp file and the atomic rename
   leaks it forever: nothing ever reads it, and nothing would ever
   delete it.  On open we sweep every tmp file whose owning pid is
   gone; in-flight publishes of live processes are left alone. *)
let sweep_orphan_tmp t =
  Array.iter
    (fun f ->
      match tmp_owner f with
      | Some pid when not (pid_alive pid) ->
          remove_noerr (Filename.concat t.root f);
          t.tmp_swept <- t.tmp_swept + 1;
          Metrics.incr c_swept
      | _ -> ())
    (names t)

let open_ ~dir ?max_bytes () =
  mkdir_p dir;
  if not (Sys.is_directory dir) then raise (Sys_error (dir ^ ": Not a directory"));
  let t =
    { root = dir; max_bytes; hits = 0; misses = 0; stores = 0; evictions = 0;
      corrupt = 0; tmp_swept = 0 }
  in
  sweep_orphan_tmp t;
  t

let dir t = t.root

let entry_path t ~key = Filename.concat t.root (Digest.to_hex (Digest.string key))

(* Every entry: a regular file with an entry name directly in the root.
   In-flight tmp files, foreign files and subdirectories are skipped. *)
let entries t =
  Array.fold_left
    (fun acc f ->
      if not (is_entry_name f) then acc
      else
        let path = Filename.concat t.root f in
        match Unix.lstat path with
        | { Unix.st_kind = Unix.S_REG; st_size; st_atime; _ } ->
            (path, st_size, st_atime) :: acc
        | _ | (exception Unix.Unix_error _) -> acc)
    [] (names t)

let size_bytes t =
  List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 (entries t)

let entry_count t = List.length (entries t)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* Validate an entry file; [Some payload] iff it parses end to end. *)
let read_entry path =
  match read_file path with
  | exception (Sys_error _ | End_of_file) -> None
  | raw ->
      if String.length raw < magic_len + digest_len then None
      else if String.sub raw 0 magic_len <> magic then None
      else
        let stored = String.sub raw magic_len digest_len in
        let payload =
          String.sub raw (magic_len + digest_len)
            (String.length raw - magic_len - digest_len)
        in
        if Digest.string payload <> stored then None else Some payload

let find t ~key =
  let path = entry_path t ~key in
  let miss ~corrupt =
    if corrupt then begin
      t.corrupt <- t.corrupt + 1;
      Metrics.incr c_corrupt;
      remove_noerr path
    end;
    t.misses <- t.misses + 1;
    Metrics.incr c_misses;
    None
  in
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> miss ~corrupt:false
  | st when st.Unix.st_kind <> Unix.S_REG -> miss ~corrupt:false
  | st -> (
      match read_entry path with
      | None -> miss ~corrupt:true
      | Some payload -> (
          match Marshal.from_string payload 0 with
          | exception _ -> miss ~corrupt:true
          | v ->
              (* LRU bookkeeping: refresh the access time on a hit while
                 preserving the modification (publish) time — [utimes p 0. 0.]
                 hits the both-zero special case that resets {e both} to
                 now, clobbering mtime on every read. *)
              (try
                 let atime = Unix.gettimeofday () in
                 (* dodge the both-zero special case of [utimes] *)
                 let atime =
                   if atime = 0.0 && st.Unix.st_mtime = 0.0 then 1e-6 else atime
                 in
                 Unix.utimes path atime st.Unix.st_mtime
               with Unix.Unix_error _ -> ());
              t.hits <- t.hits + 1;
              Metrics.incr c_hits;
              Some v))

let evict_to_cap t =
  match t.max_bytes with
  | None -> ()
  | Some cap ->
      let es = entries t in
      let total = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 es in
      if total > cap then begin
        (* Oldest access time first; path as a deterministic tie-break. *)
        let es =
          List.sort
            (fun (p1, _, a1) (p2, _, a2) ->
              match compare (a1 : float) a2 with
              | 0 -> compare (p1 : string) p2
              | c -> c)
            es
        in
        let remaining = ref total in
        List.iter
          (fun (path, sz, _) ->
            if !remaining > cap then begin
              remove_noerr path;
              remaining := !remaining - sz;
              t.evictions <- t.evictions + 1;
              Metrics.incr c_evictions
            end)
          es
      end

let store t ~key v =
  let path = entry_path t ~key in
  let payload = Marshal.to_string v [] in
  let tmp =
    Filename.concat t.root
      (Printf.sprintf ".tmp.%s.%d" (Filename.basename path) (Unix.getpid ()))
  in
  let published =
    try
      let oc = open_out_bin tmp in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
          output_string oc magic;
          output_string oc (Digest.string payload);
          output_string oc payload;
          (* a flush that fails (disk full) must not publish *)
          close_out oc);
      (* Atomic publish: a concurrent reader sees the old entry, no
         entry, or the complete new one — never a partial write. *)
      Sys.rename tmp path;
      true
    with Sys_error _ ->
      remove_noerr tmp;
      false
  in
  if published then begin
    t.stores <- t.stores + 1;
    Metrics.incr c_stores;
    evict_to_cap t
  end;
  published

(* Counters only: the [Metrics] side of a worker's lookups already
   reaches the parent through the pool's telemetry merge. *)
let credit t deltas =
  List.iter
    (fun (name, n) ->
      match name with
      | "corrupt" -> t.corrupt <- t.corrupt + n
      | "evictions" -> t.evictions <- t.evictions + n
      | "hits" -> t.hits <- t.hits + n
      | "misses" -> t.misses <- t.misses + n
      | "stores" -> t.stores <- t.stores + n
      | "tmp_swept" -> t.tmp_swept <- t.tmp_swept + n
      | _ -> invalid_arg ("Store.credit: unknown counter " ^ name))
    deltas

let stats t =
  [
    ("corrupt", t.corrupt);
    ("evictions", t.evictions);
    ("hits", t.hits);
    ("misses", t.misses);
    ("stores", t.stores);
    ("tmp_swept", t.tmp_swept);
  ]
