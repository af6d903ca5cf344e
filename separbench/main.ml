(* The SEPAR end-to-end benchmark.

     main.exe --workload bundle_audit|store_stream|device_icc
              --seed N --seconds S --trace 0|1
     main.exe --write-golden    (re-record separbench/golden.txt)

   Inputs are generated from the seed; the program under test only sees
   the generated apps, events and policies.  Every operation's output is
   checked by an oracle outside its timing.  With --trace 0 the last
   stdout line carries the end-to-end metrics; with --trace 1 it carries
   the per-layer metrics of a traced pass, paired with an untraced pass
   over the same operations.  Each workload's parameters are constants
   in its module; separbench/workloads.json records them with the
   reason for each workload and the layer -> metric predictions. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload bundle_audit|store_stream|device_icc --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | a :: v :: _ when a = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  (* library spans and the benchmark's own timings share one clock *)
  Separ_obs.Trace.set_clock Util.now_s;
  if List.mem "--write-golden" args then begin
    Audit.write_golden ();
    exit 0
  end;
  let int_arg name = match Option.bind (opt name args) int_of_string_opt with Some n -> n | None -> usage () in
  let workload = match opt "--workload" args with Some w -> w | None -> usage () in
  let seed = int_arg "--seed" and seconds = int_arg "--seconds" and trace = int_arg "--trace" in
  let run =
    match workload with
    | "bundle_audit" -> Audit.run
    | "store_stream" -> Stream.run
    | "device_icc" -> Fleet.run
    | _ -> usage ()
  in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  at_exit Util.cleanup_scratch;
  let result = run ~seed ~seconds:(float_of_int seconds) ~trace:(trace = 1) in
  Util.print_result result
