(* Minimal DIMACS CNF reader/writer for the SAT tests. *)

type problem = { n_vars : int; clauses : int list list }

(* Split on runs of any whitespace (space, tab, CR, FF, VT): DIMACS files
   in the wild are frequently tab-separated or CRLF-terminated. *)
let split_ws s =
  let is_ws = function
    | ' ' | '\t' | '\r' | '\012' | '\011' -> true
    | _ -> false
  in
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ws s.[i] then go (i + 1) acc
    else
      let j = ref i in
      while !j < n && not (is_ws s.[!j]) do incr j done;
      go !j (String.sub s i (!j - i) :: acc)
  in
  go 0 []

let parse_string s =
  let lines = String.split_on_char '\n' s in
  let n_vars = ref 0 in
  let declared_clauses = ref None in
  let clauses = ref [] in
  let current = ref [] in
  let finished = ref false in
  let handle_tokens toks =
    List.iter
      (fun tok ->
        match int_of_string_opt tok with
        | Some 0 ->
            clauses := List.rev !current :: !clauses;
            current := []
        | Some l ->
            n_vars := max !n_vars (abs l);
            current := l :: !current
        | None -> failwith ("Dimacs.parse: bad token " ^ tok))
      toks
  in
  List.iter
    (fun line ->
      let line = String.trim line in
      if !finished || line = "" then ()
      else if line.[0] = 'c' then ()
      else if line.[0] = '%' then
        (* SATLIB-format trailer: a "%" line marks end-of-input (the
           conventional "0" line after it must not become an empty
           clause). *)
        finished := true
      else if line.[0] = 'p' then begin
        match split_ws line with
        | [ "p"; "cnf"; nv; nc ] ->
            n_vars := max !n_vars (int_of_string nv);
            declared_clauses := int_of_string_opt nc
        | _ -> failwith "Dimacs.parse: bad problem line"
      end
      else handle_tokens (split_ws line))
    lines;
  if !current <> [] then clauses := List.rev !current :: !clauses;
  let clauses = List.rev !clauses in
  (match !declared_clauses with
  | Some nc when nc <> List.length clauses ->
      Printf.eprintf
        "Dimacs.parse: warning: header declares %d clauses, parsed %d\n%!"
        nc (List.length clauses)
  | _ -> ());
  { n_vars = !n_vars; clauses }

let to_string { n_vars; clauses } =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" n_vars (List.length clauses));
  List.iter
    (fun c ->
      List.iter (fun l -> Buffer.add_string buf (string_of_int l ^ " ")) c;
      Buffer.add_string buf "0\n")
    clauses;
  Buffer.contents buf

let load_into solver { n_vars; clauses } =
  for _ = 1 to n_vars do
    ignore (Separ_sat.Solver.new_var solver)
  done;
  List.iter (Separ_sat.Solver.add_clause solver) clauses
