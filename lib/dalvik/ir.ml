(* A register-based intermediate representation modelled on Dalvik
   bytecode: methods hold a flat instruction array over virtual registers,
   with labels for branch targets, field access, and invoke/move-result
   pairs.  Apps are compiled to this IR by the builder DSL (or assembled
   from text); the static analyses and the runtime interpreter both
   consume it.  A method's branches are resolved to instruction indices
   once, when it is built. *)

type reg = int

type const = Cstr of string | Cint of int | Cnull

type invoke_kind = Virtual | Static

type label = string

type instr =
  | Const of reg * const
  | Move of reg * reg
  | New_instance of reg * string           (* dst, class *)
  | Invoke of invoke_kind * Separ_android.Api.method_ref * reg list
  | Move_result of reg
  | Iget of reg * reg * string             (* dst, object, field *)
  | Iput of reg * reg * string             (* src, object, field *)
  | Sget of reg * string                   (* dst, "Class.field" *)
  | Sput of reg * string                   (* src, "Class.field" *)
  | New_array of reg * reg                 (* dst, size *)
  | Aget of reg * reg * reg                (* dst, array, index *)
  | Aput of reg * reg * reg                (* src, array, index *)
  | If_eqz of reg * label
  | If_nez of reg * label
  | Goto of label
  | Label of label
  | Return of reg option
  | Nop

type meth = {
  mname : string;
  n_params : int;     (* parameters arrive in registers 0 .. n_params-1 *)
  n_regs : int;
  body : instr array;
  targets : int array;  (* branch at i -> index of its Label; else -1 *)
}

type cls = {
  cname : string;
  methods : meth list;
}

let find_method cls name =
  List.find_opt (fun m -> m.mname = name) cls.methods

(* The only constructor: checks that labels are unique, registers in
   range, branch labels defined and move-result only after an invoke,
   and resolves every branch to the index of its label. *)
let make_method ~name ~n_params ~n_regs body =
  let fail fmt =
    Printf.ksprintf
      (fun msg -> failwith (Printf.sprintf "Ir.validate: %s in %s" msg name))
      fmt
  in
  let labels = Hashtbl.create 8 in
  Array.iteri
    (fun i instr ->
      match instr with
      | Label l ->
          if Hashtbl.mem labels l then fail "duplicate label %s" l;
          Hashtbl.replace labels l i
      | _ -> ())
    body;
  let check_reg r =
    if r < 0 || r >= n_regs then fail "register v%d out of range" r
  in
  let check_label l =
    if not (Hashtbl.mem labels l) then fail "undefined label %s" l
  in
  Array.iteri
    (fun i instr ->
      (match instr with
      | Const (r, _) | New_instance (r, _) | Move_result r
      | Sget (r, _) | Sput (r, _) ->
          check_reg r
      | Move (a, b) | Iget (a, b, _) | Iput (a, b, _) | New_array (a, b) ->
          check_reg a;
          check_reg b
      | Aget (a, b, c) | Aput (a, b, c) ->
          check_reg a;
          check_reg b;
          check_reg c
      | Invoke (_, _, args) -> List.iter check_reg args
      | If_eqz (r, l) | If_nez (r, l) ->
          check_reg r;
          check_label l
      | Goto l -> check_label l
      | Return (Some r) -> check_reg r
      | Return None | Label _ | Nop -> ());
      match instr with
      | Move_result _ ->
          if i = 0 || (match body.(i - 1) with Invoke _ -> false | _ -> true)
          then fail "move-result not after invoke"
      | _ -> ())
    body;
  let targets =
    Array.map
      (function
        | If_eqz (_, l) | If_nez (_, l) | Goto l -> Hashtbl.find labels l
        | _ -> -1)
      body
  in
  { mname = name; n_params; n_regs; body; targets }

let size_of_method m = Array.length m.body
let size_of_class c =
  List.fold_left (fun acc m -> acc + size_of_method m) 0 c.methods

let pp_const ppf = function
  | Cstr s -> Fmt.pf ppf "%S" s
  | Cint i -> Fmt.int ppf i
  | Cnull -> Fmt.string ppf "null"

let pp_instr ppf = function
  | Const (r, c) -> Fmt.pf ppf "const v%d, %a" r pp_const c
  | Move (a, b) -> Fmt.pf ppf "move v%d, v%d" a b
  | New_instance (r, c) -> Fmt.pf ppf "new-instance v%d, %s" r c
  | Invoke (k, m, args) ->
      Fmt.pf ppf "invoke-%s %s#%s(%a)"
        (match k with Virtual -> "virtual" | Static -> "static")
        m.Separ_android.Api.cls m.Separ_android.Api.mtd
        Fmt.(list ~sep:(any ", ") (fun ppf r -> pf ppf "v%d" r))
        args
  | Move_result r -> Fmt.pf ppf "move-result v%d" r
  | Iget (d, o, f) -> Fmt.pf ppf "iget v%d, v%d, %s" d o f
  | Iput (s, o, f) -> Fmt.pf ppf "iput v%d, v%d, %s" s o f
  | Sget (d, f) -> Fmt.pf ppf "sget v%d, %s" d f
  | Sput (s, f) -> Fmt.pf ppf "sput v%d, %s" s f
  | New_array (d, n) -> Fmt.pf ppf "new-array v%d, v%d" d n
  | Aget (d, a, i) -> Fmt.pf ppf "aget v%d, v%d, v%d" d a i
  | Aput (s, a, i) -> Fmt.pf ppf "aput v%d, v%d, v%d" s a i
  | If_eqz (r, l) -> Fmt.pf ppf "if-eqz v%d, :%s" r l
  | If_nez (r, l) -> Fmt.pf ppf "if-nez v%d, :%s" r l
  | Goto l -> Fmt.pf ppf "goto :%s" l
  | Label l -> Fmt.pf ppf ":%s" l
  | Return (Some r) -> Fmt.pf ppf "return v%d" r
  | Return None -> Fmt.string ppf "return-void"
  | Nop -> Fmt.string ppf "nop"

let pp_method ppf m =
  Fmt.pf ppf "@[<v 2>.method %s params=%d regs=%d@,%a@]@,.end" m.mname
    m.n_params m.n_regs
    Fmt.(array ~sep:cut pp_instr)
    m.body

let pp_class ppf c =
  Fmt.pf ppf "@[<v>.class %s@,%a@]" c.cname
    Fmt.(list ~sep:cut pp_method)
    c.methods
