(* Clock, statistics, result printing and scratch space shared by the
   three workloads. *)

module Json = Separ_report.Json

(* CLOCK_MONOTONIC in nanoseconds, through bechamel's stub: immune to
   wall-clock steps and fine enough to time sub-microsecond batches. *)
let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) *. 1e-9
let ns_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

let percentile = Separ_report.Stats.percentile
let median xs = percentile 0.5 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* A growable unboxed sample buffer: 8 bytes a sample, so a long run's
   samples barely show in the heap it measures. *)
module Samples = struct
  type t = { mutable data : Float.Array.t; mutable len : int }

  let create ?(capacity = 4096) () = { data = Float.Array.create capacity; len = 0 }

  let add s v =
    if s.len = Float.Array.length s.data then begin
      let bigger = Float.Array.create (2 * s.len) in
      Float.Array.blit s.data 0 bigger 0 s.len;
      s.data <- bigger
    end;
    Float.Array.set s.data s.len v;
    s.len <- s.len + 1

  let count s = s.len
  let to_list s = List.init s.len (Float.Array.get s.data)
  let percentile q s = percentile q (to_list s)
  let median s = percentile 0.5 s
  let sum s = List.fold_left ( +. ) 0.0 (to_list s)
  let max s = List.fold_left Float.max 0.0 (to_list s)

  (* Multiply the samples from index [i] on by [k]. *)
  let scale_from s i k =
    for j = i to s.len - 1 do
      Float.Array.set s.data j (Float.Array.get s.data j *. k)
    done
end

(* A p99 counts only with at least 1000 samples behind it. *)
let p99_note ~unit_ s =
  let n = Samples.count s in
  if n >= 1000 then Printf.sprintf "p99 %.4f %s (n=%d)" (Samples.percentile 0.99 s) unit_ n
  else Printf.sprintf "p99 not reported (n=%d < 1000)" n

(* Deterministic Fisher-Yates shuffle. *)
let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Separ_workload.Rng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

(* Host speed normalization.  The shared host's speed switches between
   phases some 1.5x apart, for a second to minutes at a time, and slows
   the program and any fixed work alike, so raw times of the same code
   differ between runs by more than a useful regression bound.  End-to-end
   times are therefore scaled to a reference speed.  A probe, a fixed
   piece of work (string hashing and table lookups, no allocation, so it
   never pays the program's GC debt) that touches nothing of the program
   under test, runs before and after each measured operation; a time
   measured while the probe takes p ns counts as t * reference_ns / p.  A
   change to the program moves the scaled time as it moves the raw time,
   while the host's phases largely cancel: on a 2-vCPU shared VM, over
   400 alternations of the probe with a fixed bundle and a fixed batch
   of launches, the spread (IQR / median) of the bundle's time fell from
   0.34 raw to 0.09 scaled, the launches' from 0.46 to 0.11.  Work that
   competes with the program for the CPU (a spinning child process, say)
   slows the probe too and would be partly hidden; the raw figures are
   the scaled ones over the factors printed on each run's info line.
   Traced runs report raw times. *)
module Speed = struct
  (* About the probe's duration on the calibration host in a fast phase,
     so scaled times read close to that host's raw times then. *)
  let reference_ns = 250_000.0

  let keys = Array.init 1024 (fun i -> Printf.sprintf "probe.%d" (i * 7919))

  let table =
    let t = Hashtbl.create 1024 in
    Array.iteri (fun i k -> Hashtbl.replace t k i) keys;
    t

  let probe () =
    let t0 = now_ns () in
    let acc = ref 0 in
    for i = 0 to 4999 do
      let k = keys.((i * 31) land 1023) in
      acc := !acc + Hashtbl.find table k + Hashtbl.hash k
    done;
    ignore (Sys.opaque_identity !acc);
    ns_since t0

  (* The factor that scales a time measured now to the reference speed,
     from the median of [probes] probes. *)
  let factor ~probes = reference_ns /. median (List.init probes (fun _ -> probe ()))

  (* The factors over a sequence of operations: [around] probes after an
     operation and returns the mean of that factor and the one probed
     before it (the previous operation's after), so that a phase change
     during the operation counts half.  With [~probe:false] it probes
     nothing and returns the last factor, for when a probe would delay
     the next operation. *)
  type t = { mutable last : float; probes : int; applied : Samples.t }

  let create ~probes = { last = factor ~probes; probes; applied = Samples.create () }

  let around ?(probe = true) sp =
    let f =
      if probe then begin
        let after = factor ~probes:sp.probes in
        let f = (sp.last +. after) /. 2.0 in
        sp.last <- after;
        f
      end
      else sp.last
    in
    Samples.add sp.applied f;
    f

  (* An info-line note on the factors a run applied. *)
  let note sp =
    let s = sp.applied in
    Printf.sprintf "host speed factor p10 %.3f p50 %.3f p90 %.3f (n=%d)"
      (Samples.percentile 0.10 s) (Samples.median s) (Samples.percentile 0.90 s) (Samples.count s)
end

(* Set-up [f] run [reps] times: the last result and the median duration
   in seconds, so that a single slow repetition does not decide
   [setup_s].  [f] holds only calls into the program under test; the
   workloads make their inputs before it.  Each duration is scaled to
   the reference speed (Speed.around).  Traced runs do not report
   [setup_s] and set up once. *)
let setup_timed ~trace ~reps f =
  let sp = Speed.create ~probes:3 in
  let rec go k last times =
    if k = 0 then
      match last with Some r -> (r, median times) | None -> assert false
    else begin
      let t0 = now_s () in
      let r = f () in
      let dt = now_s () -. t0 in
      go (k - 1) (Some r) ((dt *. Speed.around sp) :: times)
    end
  in
  go (if trace then 1 else max 1 reps) None []

(* The host's CPU count, which store_stream uses as its worker count. *)
let nproc = Domain.recommended_domain_count ()

(* Peak major-heap size of this process, sampled at operation
   boundaries (forked pool workers are not included). *)
let peak_words = ref 0

let sample_heap () =
  let st = Gc.quick_stat () in
  peak_words := max !peak_words (max st.Gc.heap_words st.Gc.top_heap_words)

let peak_heap_mb () =
  sample_heap ();
  float_of_int (!peak_words * (Sys.word_size / 8)) /. 1048576.0

(* Informational lines go to stdout ahead of the result line. *)
let info fmt = Printf.printf (fmt ^^ "\n%!")

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let print_result r =
  let metric (name, v, unit_) =
    let v =
      if Float.is_finite v then v
      else begin
        Printf.eprintf "separbench: %s is not finite\n%!" name;
        0.0
      end
    in
    (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit_) ])
  in
  print_endline
    (Json.to_string ~indent:false
       (Json.Obj
          [
            ("correct", Json.Bool (r.failed = 0));
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", Json.Obj (List.map metric r.metrics));
          ]))

(* Scratch space inside the checkout (git-ignored): one directory per
   run, removed when the run exits. *)
let scratch_parent = ".separbench"
let main_pid = Unix.getpid ()
let run_dir = Filename.concat scratch_parent (Printf.sprintf "run-%d" main_pid)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let scratch_dir name =
  List.iter
    (fun d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755)
    [ scratch_parent; run_dir ];
  let dir = Filename.concat run_dir name in
  remove_tree dir;
  dir

(* Only the process that made the run directory removes it: a forked
   pool worker must never delete it from under its parent. *)
let cleanup_scratch () =
  if Unix.getpid () = main_pid then begin
    remove_tree run_dir;
    try Unix.rmdir scratch_parent with Unix.Unix_error _ -> ()
  end
