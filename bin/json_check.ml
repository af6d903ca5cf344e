(* Checks that standard input is machine-readable JSON, for the CLI's
   runtest rules: by default the whole input must be one JSON object;
   with [--lines], every line must be one.  Prints nothing on success;
   otherwise names the first offending text on stderr and exits 1. *)

module Json = Separ_obs.Json

let () =
  let input = In_channel.input_all stdin in
  let texts =
    match Sys.argv with
    | [| _ |] -> [ input ]
    | [| _; "--lines" |] ->
        String.split_on_char '\n' input |> List.filter (fun l -> l <> "")
    | _ ->
        prerr_endline "usage: json_check [--lines] < INPUT";
        exit 2
  in
  if texts = [] then begin
    prerr_endline "json_check: no input";
    exit 1
  end;
  List.iteri
    (fun i text ->
      match Json.parse text with
      | Json.Obj _ -> ()
      | _ ->
          Printf.eprintf "json_check: text %d is not a JSON object\n" (i + 1);
          exit 1
      | exception Json.Parse_error msg ->
          Printf.eprintf "json_check: text %d: %s\n" (i + 1) msg;
          exit 1)
    texts
