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
  tier_stats : (string, int ref * int ref) Hashtbl.t; (* tier -> hits, misses *)
  mutable stores : int;
  mutable evictions : int;
  mutable corrupt : int;
  mutable tmp_swept : int;
}

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      (try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  go path

let remove_noerr path = try Sys.remove path with Sys_error _ -> ()

(* Temporary publish files are named ".tmp.<entry>.<pid>".  A process
   killed between creating one and the atomic rename leaks it forever:
   nothing ever reads it, and nothing would ever delete it.  On open we
   sweep every tmp file whose owning pid is gone (or unparseable);
   in-flight publishes of live processes are left alone. *)
let tmp_prefix = ".tmp."

let is_tmp_name f =
  String.length f >= String.length tmp_prefix
  && String.sub f 0 (String.length tmp_prefix) = tmp_prefix

let tmp_owner_pid f =
  match String.rindex_opt f '.' with
  | None -> None
  | Some i ->
      int_of_string_opt (String.sub f (i + 1) (String.length f - i - 1))

let pid_alive pid =
  pid > 0
  &&
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.EPERM, _, _) -> true (* exists, not ours *)
  | exception Unix.Unix_error _ -> false

let sweep_orphan_tmp t =
  if Sys.file_exists t.root && Sys.is_directory t.root then
    Array.iter
      (fun tier ->
        let tdir = Filename.concat t.root tier in
        if Sys.is_directory tdir then
          Array.iter
            (fun f ->
              if is_tmp_name f then
                let live =
                  match tmp_owner_pid f with
                  | Some pid -> pid_alive pid
                  | None -> false
                in
                if not live then begin
                  remove_noerr (Filename.concat tdir f);
                  t.tmp_swept <- t.tmp_swept + 1;
                  Metrics.incr c_swept
                end)
            (Sys.readdir tdir))
      (Sys.readdir t.root)

let open_ ~dir ?max_bytes () =
  mkdir_p dir;
  let t =
    { root = dir; max_bytes; tier_stats = Hashtbl.create 4;
      stores = 0; evictions = 0; corrupt = 0; tmp_swept = 0 }
  in
  sweep_orphan_tmp t;
  t

let dir t = t.root

let tier_counts t tier =
  match Hashtbl.find_opt t.tier_stats tier with
  | Some c -> c
  | None ->
      let c = (ref 0, ref 0) in
      Hashtbl.add t.tier_stats tier c;
      c

let entry_path t ~tier ~key =
  Filename.concat (Filename.concat t.root tier) (Digest.to_hex (Digest.string key))

(* Every regular non-temporary file in every tier directory.  The
   dot-prefix skip keeps in-flight ".tmp.*" publish files out of the
   size accounting and the eviction scan. *)
let entries t =
  let acc = ref [] in
  if Sys.file_exists t.root && Sys.is_directory t.root then
    Array.iter
      (fun tier ->
        let tdir = Filename.concat t.root tier in
        if Sys.is_directory tdir then
          Array.iter
            (fun f ->
              if not (String.length f > 0 && f.[0] = '.') then
                let path = Filename.concat tdir f in
                match Unix.stat path with
                | { Unix.st_kind = Unix.S_REG; st_size; st_atime; _ } ->
                    acc := (path, st_size, st_atime) :: !acc
                | _ | (exception Unix.Unix_error _) -> ())
            (Sys.readdir tdir))
      (Sys.readdir t.root);
  !acc

let size_bytes t =
  List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 (entries t)

let entry_count t ~tier =
  let tdir = Filename.concat t.root tier in
  if Sys.file_exists tdir && Sys.is_directory tdir then
    Array.fold_left
      (fun acc f -> if String.length f > 0 && f.[0] = '.' then acc else acc + 1)
      0 (Sys.readdir tdir)
  else 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* Validate an entry file; [Some payload] iff it parses end to end. *)
let read_entry path =
  match read_file path with
  | exception Sys_error _ -> None
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

let find t ~tier ~key =
  let hits, misses = tier_counts t tier in
  let path = entry_path t ~tier ~key in
  let miss ~corrupt =
    if corrupt then begin
      t.corrupt <- t.corrupt + 1;
      Metrics.incr c_corrupt;
      remove_noerr path
    end;
    incr misses;
    Metrics.incr c_misses;
    None
  in
  if not (Sys.file_exists path) then miss ~corrupt:false
  else
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
               let st = Unix.stat path in
               let atime = Unix.gettimeofday () in
               (* dodge the both-zero special case of [utimes] *)
               let atime =
                 if atime = 0.0 && st.Unix.st_mtime = 0.0 then 1e-6 else atime
               in
               Unix.utimes path atime st.Unix.st_mtime
             with Unix.Unix_error _ -> ());
            incr hits;
            Metrics.incr c_hits;
            Some v)

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

let store t ~tier ~key v =
  let tdir = Filename.concat t.root tier in
  mkdir_p tdir;
  let path = entry_path t ~tier ~key in
  let payload = Marshal.to_string v [] in
  let tmp =
    Filename.concat tdir
      (Printf.sprintf ".tmp.%s.%d" (Filename.basename path) (Unix.getpid ()))
  in
  (try
     let oc = open_out_bin tmp in
     Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
         output_string oc magic;
         output_string oc (Digest.string payload);
         output_string oc payload);
     (* Atomic publish: a concurrent reader sees the old entry, no
        entry, or the complete new one — never a partial write. *)
     Sys.rename tmp path
   with Sys_error _ -> remove_noerr tmp);
  t.stores <- t.stores + 1;
  Metrics.incr c_stores;
  evict_to_cap t

(* Counters only: the [Metrics] side of a worker's lookups already
   reaches the parent through the pool's telemetry merge. *)
let credit t ~tier ~hits ~misses ~stores =
  let h, m = tier_counts t tier in
  h := !h + hits;
  m := !m + misses;
  t.stores <- t.stores + stores

let stats t =
  let per_tier =
    Hashtbl.fold
      (fun tier (hits, misses) acc ->
        (tier ^ ".hits", !hits) :: (tier ^ ".misses", !misses) :: acc)
      t.tier_stats []
  in
  List.sort
    (fun (a, _) (b, _) -> compare (a : string) b)
    (("corrupt", t.corrupt) :: ("evictions", t.evictions)
     :: ("stores", t.stores) :: ("tmp_swept", t.tmp_swept) :: per_tier)
