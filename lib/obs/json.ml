(* A minimal JSON representation and printer (no external dependencies):
   the one writer, with the one string escaper and float rule, behind
   everything SEPAR emits for machines — analysis reports, BENCH_*.json
   snapshots, Chrome traces, NDJSON log lines and metric dumps. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec write buf ~indent ~level t =
  let pad n = if indent then String.make (2 * n) ' ' else "" in
  let nl = if indent then "\n" else "" in
  match t with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else
        (* Shortest representation that round-trips: "%g" only keeps 6
           significant digits, which corrupts microsecond-scale span
           durations and overhead percentages; fall back to "%.17g"
           (always exact for IEEE doubles) when "%g" loses precision. *)
        let s = Printf.sprintf "%g" f in
        if float_of_string s = f then Buffer.add_string buf s
        else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_string buf ("[" ^ nl);
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ("," ^ nl);
          Buffer.add_string buf (pad (level + 1));
          write buf ~indent ~level:(level + 1) item)
        items;
      Buffer.add_string buf (nl ^ pad level ^ "]")
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf ("{" ^ nl);
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ("," ^ nl);
          Buffer.add_string buf (pad (level + 1));
          Buffer.add_string buf ("\"" ^ escape k ^ "\":");
          if indent then Buffer.add_char buf ' ';
          write buf ~indent ~level:(level + 1) v)
        fields;
      Buffer.add_string buf (nl ^ pad level ^ "}")

let to_string ?(indent = true) t =
  let buf = Buffer.create 1024 in
  write buf ~indent ~level:0 t;
  Buffer.contents buf

let of_option f = function None -> Null | Some x -> f x
let strs xs = List (List.map (fun s -> Str s) xs)

(* --- a minimal reader ------------------------------------------------------

   Recursive-descent parser for the subset of JSON this module emits
   (which is plain RFC 8259 minus unicode escapes beyond \uXXXX for
   control characters).  Used by the telemetry tests to validate
   exported trace files, metrics and NDJSON log lines. *)

exception Parse_error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
          | Some ('"' | '\\' | '/') ->
              Buffer.add_char buf s.[!pos];
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              (* emitted only for control characters, so one byte *)
              Buffer.add_char buf (Char.chr (code land 0xff));
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let lexeme = String.sub s start (!pos - start) in
    if lexeme = "" then fail "expected number";
    match int_of_string_opt lexeme with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt lexeme with
        | Some f -> Float f
        | None -> fail ("bad number " ^ lexeme))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* Object-field access helpers for consumers of [parse]. *)
let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_list = function List xs -> Some xs | _ -> None
let to_str = function Str s -> Some s | _ -> None
