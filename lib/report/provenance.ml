(* Provenance stamped into benchmark artifacts: which code revision,
   which host, how many cores, when.  Timing numbers are meaningless
   for trend analysis without it — BENCH_parallel.json's "single-core
   host" caveat used to live only in prose — so every BENCH_*.json
   snapshot carries one of these. *)

type t = {
  pv_git_commit : string option; (* None outside a git checkout *)
  pv_hostname : string;
  pv_cpu_cores : int;
  pv_timestamp : string; (* ISO 8601, UTC *)
}

(* First line of [git <args>], or [None] if git is unavailable, fails,
   or prints nothing (e.g. not a repository). *)
let git_line args =
  try
    let ic = Unix.open_process_in (Printf.sprintf "git %s 2>/dev/null" args) in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l when l <> "" -> Some l
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let collect () =
  {
    pv_git_commit = git_line "rev-parse --short=12 HEAD";
    pv_hostname = (try Unix.gethostname () with Unix.Unix_error _ -> "unknown");
    pv_cpu_cores = Domain.recommended_domain_count ();
    pv_timestamp = iso8601 (Unix.time ());
  }

let json p =
  Json.Obj
    [
      ("git_commit", Json.of_option (fun s -> Json.Str s) p.pv_git_commit);
      ("hostname", Json.Str p.pv_hostname);
      ("cpu_cores", Json.Int p.pv_cpu_cores);
      ("timestamp", Json.Str p.pv_timestamp);
    ]
