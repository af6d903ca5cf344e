(* A textual container format for whole APKs: manifest header followed by
   the smali-like class listing of {!Asm}.  This is what the command-line
   tool reads and writes, and it round-trips. *)

open Separ_android

let print (apk : Apk.t) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let m = apk.Apk.manifest in
  add ".package %s\n" m.Manifest.package;
  List.iter (add ".uses-permission %s\n") m.Manifest.uses_permissions;
  List.iter
    (fun (c : Component.t) ->
      add ".component %s %s%s%s\n"
        (Component.kind_to_string c.Component.kind)
        c.Component.name
        (match c.Component.exported with
        | Some true -> " exported=true"
        | Some false -> " exported=false"
        | None -> "")
        (match c.Component.permission with
        | Some p -> " permission=" ^ p
        | None -> "");
      List.iter
        (fun (f : Intent_filter.t) ->
          add ".filter %s actions=%s categories=%s types=%s schemes=%s hosts=%s priority=%d\n"
            c.Component.name
            (String.concat "," f.Intent_filter.actions)
            (String.concat "," f.Intent_filter.categories)
            (String.concat "," f.Intent_filter.data_types)
            (String.concat "," f.Intent_filter.data_schemes)
            (String.concat "," f.Intent_filter.data_hosts)
            f.Intent_filter.priority)
        c.Component.intent_filters)
    m.Manifest.components;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Asm.disassemble apk);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let split_csv s =
  if String.trim s = "" then []
  else String.split_on_char ',' s |> List.map String.trim

let parse text : Apk.t =
  let lines = String.split_on_char '\n' text in
  let package = ref None in
  let perms = ref [] in
  (* name -> (kind, exported, permission, filters rev) *)
  let comps : (string, Component.kind * bool option * string option) Hashtbl.t
      =
    Hashtbl.create 8
  in
  let comp_order = ref [] in
  let filters : (string, Intent_filter.t list) Hashtbl.t = Hashtbl.create 8 in
  let class_lines = Buffer.create 1024 in
  let in_classes = ref false in
  let kv_list attrs =
    List.filter_map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i ->
            Some
              ( String.sub tok 0 i,
                String.sub tok (i + 1) (String.length tok - i - 1) )
        | None -> None)
      attrs
  in
  List.iter
    (fun raw ->
      let line = String.trim raw in
      if !in_classes then begin
        Buffer.add_string class_lines raw;
        Buffer.add_char class_lines '\n'
      end
      else if line = "" then ()
      else if String.length line > 7 && String.sub line 0 7 = ".class " then begin
        in_classes := true;
        Buffer.add_string class_lines raw;
        Buffer.add_char class_lines '\n'
      end
      else
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | ".package" :: p :: _ -> package := Some p
        | ".uses-permission" :: p :: _ -> perms := p :: !perms
        | ".component" :: kind :: name :: attrs ->
            let kind =
              match kind with
              | "Activity" -> Component.Activity
              | "Service" -> Component.Service
              | "Receiver" -> Component.Receiver
              | "Provider" -> Component.Provider
              | k -> failwith ("Apk_text.parse: bad component kind " ^ k)
            in
            if Hashtbl.mem comps name then
              failwith ("Apk_text.parse: duplicate component " ^ name);
            let kvs = kv_list attrs in
            let exported =
              Option.map
                (fun b ->
                  match bool_of_string_opt b with
                  | Some b -> b
                  | None -> failwith ("Apk_text.parse: bad exported=" ^ b))
                (List.assoc_opt "exported" kvs)
            in
            let permission = List.assoc_opt "permission" kvs in
            Hashtbl.replace comps name (kind, exported, permission);
            comp_order := name :: !comp_order
        | ".filter" :: name :: attrs ->
            let kvs = kv_list attrs in
            let get k = split_csv (Option.value ~default:"" (List.assoc_opt k kvs)) in
            let priority =
              match List.assoc_opt "priority" kvs with
              | Some p -> int_of_string p
              | None -> 0
            in
            let f =
              Intent_filter.make ~actions:(get "actions")
                ~categories:(get "categories") ~data_types:(get "types")
                ~data_schemes:(get "schemes") ~data_hosts:(get "hosts")
                ~priority ()
            in
            Hashtbl.replace filters name
              (f :: Option.value ~default:[] (Hashtbl.find_opt filters name))
        | tok :: _ -> failwith ("Apk_text.parse: unexpected line " ^ tok)
        | [] -> ())
    lines;
  let package =
    match !package with
    | Some p -> p
    | None -> failwith "Apk_text.parse: missing .package"
  in
  let components =
    List.rev_map
      (fun name ->
        let kind, exported, permission = Hashtbl.find comps name in
        Component.make ~name ~kind ?exported ?permission
          ~intent_filters:
            (List.rev (Option.value ~default:[] (Hashtbl.find_opt filters name)))
          ())
      !comp_order
  in
  let classes = Asm.assemble (Buffer.contents class_lines) in
  Apk.make
    ~manifest:
      (Manifest.make ~package ~uses_permissions:(List.rev !perms) ~components
         ())
    ~classes

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse s

let save path apk =
  let oc = open_out path in
  output_string oc (print apk);
  close_out oc
