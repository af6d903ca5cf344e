(* Textual assembler and disassembler for the IR, in a smali-like format.
   [disassemble] and [assemble] round-trip; the format is what
   {!Ir.pp_class} prints. *)

open Separ_android

let disassemble_class c = Fmt.str "%a" Ir.pp_class c

let disassemble (apk : Apk.t) =
  String.concat "\n" (List.map disassemble_class apk.Apk.classes)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let parse_reg s =
  if String.length s < 2 || s.[0] <> 'v' then fail "bad register %S" s
  else
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some r -> r
    | None -> fail "bad register %S" s

let strip_comma s =
  if String.length s > 0 && s.[String.length s - 1] = ',' then
    String.sub s 0 (String.length s - 1)
  else s

let parse_mref s =
  match String.index_opt s '#' with
  | None -> fail "bad method reference %S" s
  | Some i ->
      Api.mref (String.sub s 0 i) (String.sub s (i + 1) (String.length s - i - 1))

let words line =
  String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

let parse_instr line =
  let line = String.trim line in
  if String.length line > 0 && line.[0] = ':' then
    Ir.Label (String.sub line 1 (String.length line - 1))
  else
    match words line with
    | [ "nop" ] -> Ir.Nop
    | [ "return-void" ] -> Ir.Return None
    | [ "return"; r ] -> Ir.Return (Some (parse_reg r))
    | [ "move"; a; b ] -> Ir.Move (parse_reg (strip_comma a), parse_reg b)
    | [ "move-result"; r ] -> Ir.Move_result (parse_reg r)
    | [ "new-instance"; r; c ] -> Ir.New_instance (parse_reg (strip_comma r), c)
    | [ "goto"; l ] when String.length l > 1 && l.[0] = ':' ->
        Ir.Goto (String.sub l 1 (String.length l - 1))
    | [ "if-eqz"; r; l ] when String.length l > 1 && l.[0] = ':' ->
        Ir.If_eqz (parse_reg (strip_comma r), String.sub l 1 (String.length l - 1))
    | [ "if-nez"; r; l ] when String.length l > 1 && l.[0] = ':' ->
        Ir.If_nez (parse_reg (strip_comma r), String.sub l 1 (String.length l - 1))
    | [ "iget"; d; o; f ] ->
        Ir.Iget (parse_reg (strip_comma d), parse_reg (strip_comma o), f)
    | [ "iput"; s; o; f ] ->
        Ir.Iput (parse_reg (strip_comma s), parse_reg (strip_comma o), f)
    | [ "sget"; d; f ] -> Ir.Sget (parse_reg (strip_comma d), f)
    | [ "sput"; s; f ] -> Ir.Sput (parse_reg (strip_comma s), f)
    | [ "new-array"; d; n ] ->
        Ir.New_array (parse_reg (strip_comma d), parse_reg n)
    | [ "aget"; d; a; i ] ->
        Ir.Aget
          (parse_reg (strip_comma d), parse_reg (strip_comma a), parse_reg i)
    | [ "aput"; s; a; i ] ->
        Ir.Aput
          (parse_reg (strip_comma s), parse_reg (strip_comma a), parse_reg i)
    | "const" :: r :: rest -> (
        let r = parse_reg (strip_comma r) in
        let payload = String.concat " " rest in
        if payload = "null" then Ir.Const (r, Ir.Cnull)
        else if String.length payload > 0 && payload.[0] = '"' then
          try Scanf.sscanf payload "%S" (fun s -> Ir.Const (r, Ir.Cstr s))
          with Scanf.Scan_failure _ -> fail "bad string constant %S" payload
        else
          match int_of_string_opt payload with
          | Some n -> Ir.Const (r, Ir.Cint n)
          | None -> fail "bad constant %S" payload)
    | kw :: rest
      when kw = "invoke-virtual" || kw = "invoke-static" -> (
        let kind = if kw = "invoke-virtual" then Ir.Virtual else Ir.Static in
        let s = String.concat " " rest in
        let n = String.length s in
        match String.index_opt s '(' with
        | Some i when s.[n - 1] = ')' ->
            let mref = parse_mref (String.sub s 0 i) in
            let args_s = String.sub s (i + 1) (n - i - 2) in
            let args =
              if String.trim args_s = "" then []
              else
                String.split_on_char ',' args_s
                |> List.map (fun a -> parse_reg (String.trim a))
            in
            Ir.Invoke (kind, mref, args)
        | _ -> fail "bad invoke %S" line)
    | _ -> fail "unrecognised instruction %S" line

(* Parse one or more classes from assembler text. *)
let assemble text =
  let lines = String.split_on_char '\n' text in
  let classes = ref [] in
  let cur_class = ref None in
  let cur_methods = ref [] in
  let cur_method = ref None in
  let cur_body = ref [] in
  let flush_class () =
    match !cur_class with
    | None -> ()
    | Some name ->
        classes := Ir.{ cname = name; methods = List.rev !cur_methods } :: !classes;
        cur_class := None;
        cur_methods := []
  in
  List.iter
    (fun raw ->
      let line = String.trim raw in
      if line = "" then ()
      else if String.length line > 7 && String.sub line 0 7 = ".class " then begin
        flush_class ();
        cur_class := Some (String.trim (String.sub line 7 (String.length line - 7)))
      end
      else if String.length line > 8 && String.sub line 0 8 = ".method " then begin
        match words line with
        | [ ".method"; name; params; regs ] ->
            let get_kv s key =
              match String.split_on_char '=' s with
              | [ k; v ] when k = key -> int_of_string v
              | _ -> fail "bad .method attribute %S" s
            in
            cur_method :=
              Some (name, get_kv params "params", get_kv regs "regs");
            cur_body := []
        | _ -> fail "bad .method line %S" line
      end
      else if line = ".end" then begin
        match !cur_method with
        | None -> fail ".end without .method"
        | Some (name, n_params, n_regs) ->
            let m =
              Ir.make_method ~name ~n_params ~n_regs
                (Array.of_list (List.rev !cur_body))
            in
            cur_methods := m :: !cur_methods;
            cur_method := None
      end
      else
        match !cur_method with
        | Some _ -> cur_body := parse_instr line :: !cur_body
        | None -> fail "instruction outside method: %S" line)
    lines;
  (match !cur_method with
  | Some (name, _, _) -> fail "unterminated method %s" name
  | None -> ());
  flush_class ();
  List.rev !classes
