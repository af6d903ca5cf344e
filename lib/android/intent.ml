(* Intents: Android's application-level messages.  This is the structural
   representation shared by the manifest model, the extractor and the
   simulated runtime; extra values carry a taint set of the resources
   their contents were derived from, which is what both the analysis and
   the enforcement layer reason about. *)

type extra = {
  key : string;
  value : string;
  taint : Resource.t list; (* resources this value is derived from *)
}

type t = {
  target : string option; (* explicit target: component class name *)
  action : string option;
  categories : string list;
  data_type : string option;   (* MIME type *)
  data_scheme : string option; (* URI scheme *)
  data_host : string option;   (* URI authority; requires a scheme *)
  extras : extra list;
  wants_result : bool;         (* sent via startActivityForResult *)
}

let make ?target ?action ?(categories = []) ?data_type ?data_scheme ?data_host
    ?(extras = []) ?(wants_result = false) () =
  {
    target; action; categories; data_type; data_scheme; data_host; extras;
    wants_result;
  }

(* Parse a data URI of the form "scheme://host" (or a bare scheme). *)
let split_uri uri =
  match String.index_opt uri ':' with
  | Some i
    when i + 2 < String.length uri
         && String.sub uri i 3 = "://" ->
      let scheme = String.sub uri 0 i in
      let rest = String.sub uri (i + 3) (String.length uri - i - 3) in
      let host =
        match String.index_opt rest '/' with
        | Some j -> String.sub rest 0 j
        | None -> rest
      in
      (scheme, if host = "" then None else Some host)
  | _ -> (uri, None)

let empty = make ()

let is_implicit t = t.target = None

let put_extra t ~key ~value ~taint =
  { t with extras = { key; value; taint } :: t.extras }

(* All resources carried by the intent's extras. *)
let carried_resources t =
  List.sort_uniq Resource.compare (List.concat_map (fun e -> e.taint) t.extras)

let pp ppf t =
  Fmt.pf ppf "Intent{%a%a%a extras=[%a]}"
    Fmt.(option (fun ppf -> pf ppf "target=%s "))
    t.target
    Fmt.(option (fun ppf -> pf ppf "action=%s "))
    t.action
    Fmt.(list ~sep:(any ",") string)
    t.categories
    Fmt.(list ~sep:(any ";") (fun ppf e -> pf ppf "%s" e.key))
    t.extras
