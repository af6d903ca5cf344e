(* Helper process for the pool lifecycle test: runs one forked pool,
   forks a holder child that keeps inherited copies of the pool's pipes
   open, prints the worker pids on one line and the holder's pid on the
   next, then ends the way its argument says — [exit0], [exit3], or
   [raise] for an uncaught exception.  While the holder lives, the
   workers see no EOF on their task pipes, so only the pool's exit hook
   can take them down. *)

module Pool = Separ_exec.Pool

let () =
  let pids =
    List.sort_uniq compare
      (List.filter_map
         (function Pool.Done p -> Some p | Pool.Failed _ -> None)
         (Pool.map ~jobs:2 (fun _ -> Unix.getpid ()) [ 1; 2; 3; 4 ]))
  in
  flush_all ();
  let holder =
    match Unix.fork () with
    | 0 ->
        Unix.sleep 30;
        Unix._exit 0
    | pid -> pid
  in
  print_endline (String.concat " " (List.map string_of_int pids));
  print_endline (string_of_int holder);
  match Sys.argv with
  | [| _; "exit0" |] -> exit 0
  | [| _; "exit3" |] -> exit 3
  | _ -> failwith "pool_child: uncaught on purpose"
