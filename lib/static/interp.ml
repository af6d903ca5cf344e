(* The combined whole-component abstract interpreter.

   For one component of an app, starting from its lifecycle entry points
   (the incoming intent in register 0), this module runs an
   inter-procedural, flow- and field-sensitive fixpoint over the abstract
   domain of {!Absval}: string constant propagation, intent
   allocation-site tracking, taint propagation and permission-check
   tracking happen in a single pass, with optional one-call-site context
   sensitivity (k = 1, the default; k = 0 joins all call sites).

   Two kinds of results are produced:
   - intent facts: every intent the component can send, with its resolved
     action/category/data/target properties, carried extras and their
     taint, the ICC method used, and whether it is a passive result
     intent ([setResult]);
   - path facts: sensitive data-flow paths [source resource -> sink
     resource], including ICC as a source (data read from the incoming
     intent) and as a sink (tainted data attached to an outgoing intent),
     together with the permissions whose dynamic checks guard the sink
     (the basis for code-level permission enforcement detection).

   Each method's fixpoint runs over basic blocks ({!Dataflow.forward}):
   in-states, dense register arrays, live only at block heads, and every
   block runs in one mutable frame.  Fact extraction does not re-run the
   transfer function: while a block runs it records what extraction
   reads, the argument values at each invoke and the permission checks a
   branch tests. *)

open Separ_dalvik
open Separ_android
module SS = Absval.SS
module RS = Absval.RS
module IS = Absval.IS

type key = { kcls : string; kmtd : string; kctx : int }

module KeyH = Hashtbl

(* Mutable per-site intent properties, grown monotonically during the
   fixpoint. *)
type site_props = {
  mutable actions : SS.t;
  mutable actions_top : bool;
  mutable categories : SS.t;
  mutable data_types : SS.t;
  mutable data_schemes : SS.t;
  mutable data_hosts : SS.t;  (* URI authorities from setData *)
  mutable targets : SS.t; (* explicit component class names *)
  mutable extra_keys : SS.t;
  mutable extra_taints : RS.t;
}

let fresh_props () =
  {
    actions = SS.empty;
    actions_top = false;
    categories = SS.empty;
    data_types = SS.empty;
    data_schemes = SS.empty;
    data_hosts = SS.empty;
    targets = SS.empty;
    extra_keys = SS.empty;
    extra_taints = RS.empty;
  }

(* A dense register file plus the result of the last invoke, awaiting
   its move-result.  The state at a block head is one, and so is the
   frame each block runs in: a block copies its head's state into the
   component's one frame and then writes registers in place, so a state
   is copied only where control enters a block.  The frame grows to the
   widest method analyzed; its registers past a method's count are never
   read. *)
type state = { regs : Absval.t array; mutable result : Absval.t }

(* What fact extraction reads of one method's analysis, per instruction,
   recorded while its blocks run.  Each run of a block overwrites its
   records, and the last run sees the block's final in-state, so the
   records are those of the fixpoint's last pass over the method. *)
type read =
  | Unreached
  | Args of Absval.t list  (* argument values at a reached invoke *)
  | Tested of SS.t
      (* permission checks held by the register a reached if-eqz/if-nez
         tests *)

(* Facts reported per component. *)
type intent_fact = {
  if_actions : string list option; (* None: statically unresolved *)
  if_categories : string list;
  if_data_types : string list;
  if_data_schemes : string list;
  if_data_hosts : string list;     (* URI authorities *)
  if_targets : string list;        (* explicit targets, usually <= 1 *)
  if_extra_keys : string list;
  if_extra_taints : Resource.t list;
  if_icc : Api.icc_kind;
  if_wants_result : bool;
  if_passive : bool;               (* a setResult reply *)
  if_forwards_incoming : bool;     (* re-sends the received intent *)
}

type path_fact = {
  pf_source : Resource.t;
  pf_sink : Resource.t;
  pf_guards : Permission.t list; (* permissions whose check guards the sink *)
}

type facts = {
  intents : intent_fact list;
  paths : path_fact list;
  uses_permissions : Permission.t list;
  registers_dynamic_receiver : bool;
  dynamic_filters : (string option * string list) list;
      (* (receiver class, actions) of resolvable dynamic registrations *)
  reads_extra_keys : string list; (* keys read from the incoming intent *)
  analyzed_methods : int;
  fixpoint_rounds : int;
  fixpoint_capped : bool; (* stopped at [max_rounds] before converging *)
}

type t = {
  apk : Apk.t;
  k1 : bool;
  site_ids : (key * int, int) Hashtbl.t;
  mutable n_sites : int;
  props : (int, site_props) Hashtbl.t;
  fields : (string, Absval.t) Hashtbl.t;
  entries : (key, Absval.t array) KeyH.t;
  rets : (key, Absval.t) KeyH.t;
  mutable call_sites : ((string * string) * int, int) Hashtbl.t;
      (* static call-site numbering: (caller class, method), instr index *)
  mutable n_call_sites : int;
  arr_cells : (int, Absval.t) Hashtbl.t;
      (* index-insensitive summary cell per array allocation site *)
  mutable read_keys : SS.t; (* extra keys read from the incoming intent *)
  mutable changed : bool;
  mutable frame : state;
}

let create ?(k1 = true) apk =
  {
    apk;
    k1;
    site_ids = Hashtbl.create 32;
    n_sites = 0;
    props = Hashtbl.create 32;
    fields = Hashtbl.create 32;
    entries = KeyH.create 32;
    rets = KeyH.create 32;
    call_sites = Hashtbl.create 32;
    n_call_sites = 0;
    arr_cells = Hashtbl.create 16;
    read_keys = SS.empty;
    changed = false;
    frame = { regs = [||]; result = Absval.bot };
  }

let site_id t key idx =
  match Hashtbl.find_opt t.site_ids (key, idx) with
  | Some s -> s
  | None ->
      let s = t.n_sites in
      t.n_sites <- s + 1;
      Hashtbl.replace t.site_ids (key, idx) s;
      Hashtbl.replace t.props s (fresh_props ());
      s

(* Array summary cells: one abstract value per allocation site (arrays
   are smashed — index-insensitive, like standard Android analyses). *)
let arr_get t sid =
  Option.value ~default:Absval.bot (Hashtbl.find_opt t.arr_cells sid)

let arr_put t sid v =
  let merged = Absval.join (arr_get t sid) v in
  if not (Absval.equal (arr_get t sid) merged) then begin
    Hashtbl.replace t.arr_cells sid merged;
    t.changed <- true
  end

let props_of t s = Hashtbl.find t.props s

(* Context = static call site (caller location, not caller context), so
   k = 1 call-site sensitivity stays bounded even under recursion. *)
let call_site_id t key idx =
  let site = ((key.kcls, key.kmtd), idx) in
  match Hashtbl.find_opt t.call_sites site with
  | Some c -> c
  | None ->
      let c = t.n_call_sites + 1 in
      t.n_call_sites <- c;
      Hashtbl.replace t.call_sites site c;
      c

(* Monotone set-growing helpers that record whether anything changed. *)
let grow_ss t get set items =
  List.iter
    (fun x ->
      if not (SS.mem x (get ())) then begin
        set (SS.add x (get ()));
        t.changed <- true
      end)
    items

let grow_rs t get set items =
  List.iter
    (fun x ->
      if not (RS.mem x (get ())) then begin
        set (RS.add x (get ()));
        t.changed <- true
      end)
    items

(* Merge the possible strings of [v] into a property set; an unresolvable
   value flips the property's top flag instead. *)
let update_strings t ~top_setter ~get ~set v =
  match Absval.strings v with
  | Some ss -> grow_ss t get set ss
  | None -> if not (top_setter ()) then t.changed <- true

let field_get t f =
  Option.value ~default:Absval.bot (Hashtbl.find_opt t.fields f)

let field_put t f v =
  let old = field_get t f in
  let merged = Absval.join old v in
  if not (Absval.equal old merged) then begin
    Hashtbl.replace t.fields f merged;
    t.changed <- true
  end

let join_ret t key v =
  let old = Option.value ~default:Absval.bot (KeyH.find_opt t.rets key) in
  let merged = Absval.join old v in
  if not (Absval.equal old merged) then begin
    KeyH.replace t.rets key merged;
    t.changed <- true
  end

let ret_of t key =
  Option.value ~default:Absval.bot (KeyH.find_opt t.rets key)

let is_internal t cls = Apk.find_class t.apk cls <> None

let find_internal_method t cls mtd =
  match Apk.find_class t.apk cls with
  | None -> None
  | Some c -> Ir.find_method c mtd

(* Register (or grow) the entry state of an internal method. *)
let join_entry t key (args : Absval.t list) n_params n_regs =
  let arr =
    match KeyH.find_opt t.entries key with
    | Some a -> a
    | None ->
        let a = Array.make (max n_regs 1) Absval.bot in
        KeyH.replace t.entries key a;
        t.changed <- true;
        a
  in
  List.iteri
    (fun i v ->
      if i < n_params && i < Array.length arr then begin
        let merged = Absval.join arr.(i) v in
        if not (Absval.equal arr.(i) merged) then begin
          arr.(i) <- merged;
          t.changed <- true
        end
      end)
    args

(* --- the transfer function -------------------------------------------- *)

let get_reg f r = f.regs.(r)
let set_reg f r v = f.regs.(r) <- v

let handle_intent_op t f op (arg_vals : Absval.t list) =
  let arg n = List.nth arg_vals n in
  let sites v = IS.elements v.Absval.sites in
  match op with
  | Api.New_intent -> f.result <- Absval.bot
  | Api.Get_intent -> f.result <- Absval.incoming_intent
  | Api.Set_action ->
      let intent = arg 0 and a = arg 1 in
      List.iter
        (fun sid ->
          let p = props_of t sid in
          update_strings t
            ~top_setter:(fun () ->
              let was = p.actions_top in
              p.actions_top <- true;
              was)
            ~get:(fun () -> p.actions)
            ~set:(fun v -> p.actions <- v)
            a)
        (sites intent)
  | Api.Add_category ->
      let intent = arg 0 and c = arg 1 in
      List.iter
        (fun sid ->
          let p = props_of t sid in
          match Absval.strings c with
          | Some ss ->
              grow_ss t (fun () -> p.categories) (fun v -> p.categories <- v) ss
          | None -> ())
        (sites intent)
  | Api.Set_data_type ->
      let intent = arg 0 and d = arg 1 in
      List.iter
        (fun sid ->
          let p = props_of t sid in
          match Absval.strings d with
          | Some ss ->
              grow_ss t (fun () -> p.data_types) (fun v -> p.data_types <- v) ss
          | None -> ())
        (sites intent)
  | Api.Set_data_scheme ->
      (* setData takes a URI: split "scheme://host" into its parts *)
      let intent = arg 0 and d = arg 1 in
      List.iter
        (fun sid ->
          let p = props_of t sid in
          match Absval.strings d with
          | Some ss ->
              List.iter
                (fun uri ->
                  let scheme, host = Intent.split_uri uri in
                  grow_ss t
                    (fun () -> p.data_schemes)
                    (fun v -> p.data_schemes <- v)
                    [ scheme ];
                  match host with
                  | Some h ->
                      grow_ss t
                        (fun () -> p.data_hosts)
                        (fun v -> p.data_hosts <- v)
                        [ h ]
                  | None -> ())
                ss
          | None -> ())
        (sites intent)
  | Api.Set_class_name ->
      let intent = arg 0 and c = arg 1 in
      List.iter
        (fun sid ->
          let p = props_of t sid in
          match Absval.strings c with
          | Some ss -> grow_ss t (fun () -> p.targets) (fun v -> p.targets <- v) ss
          | None -> ())
        (sites intent)
  | Api.Put_extra ->
      let intent = arg 0 and k = arg 1 and v = arg 2 in
      List.iter
        (fun sid ->
          let p = props_of t sid in
          (match Absval.strings k with
          | Some ss ->
              grow_ss t (fun () -> p.extra_keys) (fun v -> p.extra_keys <- v) ss
          | None -> ());
          grow_rs t
            (fun () -> p.extra_taints)
            (fun x -> p.extra_taints <- x)
            (Absval.taint_list v))
        (sites intent)
  | Api.Get_extra | Api.Get_all_extras ->
      let intent = arg 0 in
      (if intent.Absval.incoming && List.length arg_vals > 1 then
         match Absval.strings (arg 1) with
         | Some keys ->
             List.iter
               (fun k ->
                 if not (SS.mem k t.read_keys) then begin
                   t.read_keys <- SS.add k t.read_keys;
                   t.changed <- true
                 end)
               keys
         | None -> ());
      let taints =
        List.fold_left
          (fun acc sid -> RS.union acc (props_of t sid).extra_taints)
          RS.empty (sites intent)
      in
      let taints =
        if intent.Absval.incoming then RS.add Resource.Icc taints else taints
      in
      f.result <- { Absval.str_top = true;
                    strs = SS.empty;
                    sites = IS.empty;
                    incoming = false;
                    taints;
                    perm_checks = SS.empty }

let handle_invoke t key f idx (mref : Api.method_ref) (arg_vals : Absval.t list) =
  match Api.classify mref with
  | Api.Source r ->
      f.result <- { (Absval.of_taints [ r ]) with Absval.str_top = true }
  | Api.Sink _ -> f.result <- Absval.bot
  | Api.Icc (Api.Bind_service | Api.Provider_query) ->
      (* binder- and cursor-mediated results: data produced by another
         component, i.e. ICC-sourced *)
      f.result <- { (Absval.of_taints [ Resource.Icc ]) with Absval.str_top = true }
  | Api.Icc _ -> f.result <- Absval.bot
  | Api.Intent_op op -> handle_intent_op t f op arg_vals
  | Api.Callback_reg ->
      (* the named methods of this class become additional roots: the
         framework may invoke them on user interaction *)
      (match arg_vals with
      | h :: _ -> (
          match Absval.strings h with
          | Some handlers ->
              List.iter
                (fun mtd ->
                  match find_internal_method t key.kcls mtd with
                  | Some m ->
                      let cb_key = { kcls = key.kcls; kmtd = mtd; kctx = 0 } in
                      join_entry t cb_key [] m.Ir.n_params m.Ir.n_regs
                  | None -> ())
                handlers
          | None -> ())
      | [] -> ());
      f.result <- Absval.bot
  | Api.Broadcast_abort -> f.result <- Absval.bot
  | Api.Permission_check ->
      f.result <-
        (match arg_vals with
        | [] -> Absval.bot
        | p :: _ -> (
            match Absval.strings p with
            | Some perms ->
                List.fold_left
                  (fun acc perm -> Absval.join acc (Absval.of_perm_check perm))
                  Absval.bot perms
            | None -> Absval.bot))
  | Api.Other ->
      f.result <-
        (if is_internal t mref.Api.cls then
           match find_internal_method t mref.Api.cls mref.Api.mtd with
           | None -> Absval.bot
           | Some m ->
               let ctx = if t.k1 then call_site_id t key idx else 0 in
               let callee =
                 { kcls = mref.Api.cls; kmtd = mref.Api.mtd; kctx = ctx }
               in
               join_entry t callee arg_vals m.Ir.n_params m.Ir.n_regs;
               ret_of t callee
         else Absval.bot)

(* Execute instruction [i] in the frame [f], recording what fact
   extraction reads of it in [reads]. *)
let step t key reads f i instr =
  match instr with
  | Ir.Const (r, Ir.Cstr str) -> set_reg f r (Absval.of_string str)
  | Ir.Const (r, _) -> set_reg f r Absval.bot
  | Ir.Move (d, src) -> set_reg f d (get_reg f src)
  | Ir.New_instance (r, cls) when cls = Api.c_intent ->
      set_reg f r (Absval.of_site (site_id t key i))
  | Ir.New_instance (r, _) -> set_reg f r Absval.bot
  | Ir.Invoke (_, mref, args) ->
      let arg_vals = List.map (get_reg f) args in
      reads.(i) <- Args arg_vals;
      handle_invoke t key f i mref arg_vals
  | Ir.Move_result r -> set_reg f r f.result
  | Ir.Iget (d, _o, fld) -> set_reg f d (field_get t fld)
  | Ir.Iput (src, _o, fld) -> field_put t fld (get_reg f src)
  | Ir.Sget (d, fld) -> set_reg f d (field_get t fld)
  | Ir.Sput (src, fld) -> field_put t fld (get_reg f src)
  | Ir.New_array (r, _) -> set_reg f r (Absval.of_site (site_id t key i))
  | Ir.Aput (src, arr, _) ->
      IS.iter (fun sid -> arr_put t sid (get_reg f src)) (get_reg f arr).Absval.sites
  | Ir.Aget (d, arr, _) ->
      set_reg f d
        (IS.fold
           (fun sid acc -> Absval.join acc (arr_get t sid))
           (get_reg f arr).Absval.sites Absval.bot)
  | Ir.If_eqz (r, _) | Ir.If_nez (r, _) ->
      reads.(i) <- Tested (get_reg f r).Absval.perm_checks
  | Ir.Goto _ | Ir.Label _ | Ir.Nop | Ir.Return None -> ()
  | Ir.Return (Some r) -> join_ret t key (get_reg f r)

(* --- fixpoint over all registered methods ------------------------------ *)

(* Joins at a block head go register by register; a register whose value
   is physically the head's, as untouched registers are, costs one
   pointer comparison. *)
let join_value a b =
  if a == b then a
  else
    let j = Absval.join a b in
    if Absval.equal j a then a else j

(* Head states of a method with [len] registers. *)
let head_lattice len : state Dataflow.lattice =
  {
    copy = (fun s -> { regs = Array.sub s.regs 0 len; result = s.result });
    join_into =
      (fun h s ->
        let grew = ref false in
        for r = 0 to len - 1 do
          let a = h.regs.(r) in
          let j = join_value a s.regs.(r) in
          if j != a then begin
            h.regs.(r) <- j;
            grew := true
          end
        done;
        let j = join_value h.result s.result in
        if j != h.result then begin
          h.result <- j;
          grew := true
        end;
        !grew);
  }

(* Analyze one method from its entry registers, returning the reads fact
   extraction needs.  [prev] is the method's reads from the round before,
   overwritten in place: every analysis runs every reachable block, so
   each reached invoke and branch gets a fresh record, and the rest stay
   [Unreached]. *)
let analyze_method t key (m : Ir.meth) entry_regs prev : read array =
  let reads =
    match prev with
    | Some r -> r
    | None -> Array.make (Array.length m.Ir.body) Unreached
  in
  let len = Array.length entry_regs in
  if Array.length t.frame.regs < len then
    t.frame <- { regs = Array.make len Absval.bot; result = Absval.bot };
  let frame = t.frame in
  let run start stop (s : state) =
    Array.blit s.regs 0 frame.regs 0 len;
    frame.result <- s.result;
    for i = start to stop - 1 do
      step t key reads frame i m.Ir.body.(i)
    done;
    frame
  in
  ignore
    (Dataflow.forward (head_lattice len)
       ~entry:{ regs = entry_regs; result = Absval.bot }
       ~run m);
  reads

(* Rounds of the global fixpoint before it gives up.  Each round analyzes
   the methods registered before it started, so a call chain deeper than
   this is cut short: the facts of its deepest methods are missing. *)
let max_rounds = 100

(* Run the global fixpoint from the given roots.  Returns the reads of
   each method key's last analysis, the rounds run, and whether the cap
   stopped the iteration before it converged. *)
let run t (roots : (key * Ir.meth * Absval.t array) list) =
  List.iter
    (fun (key, m, entry_regs) ->
      join_entry t key (Array.to_list entry_regs) m.Ir.n_params m.Ir.n_regs)
    roots;
  let reads = KeyH.create 16 in
  let rounds = ref 0 in
  let continue = ref true in
  while !continue && !rounds < max_rounds do
    incr rounds;
    t.changed <- false;
    let keys = KeyH.fold (fun k _ acc -> k :: acc) t.entries [] in
    List.iter
      (fun key ->
        match find_internal_method t key.kcls key.kmtd with
        | None -> ()
        | Some m ->
            let entry_regs = KeyH.find t.entries key in
            let prev = KeyH.find_opt reads key in
            KeyH.replace reads key (analyze_method t key m entry_regs prev))
      keys;
    if not t.changed then continue := false
  done;
  (reads, !rounds, !continue)

(* --- post-pass: fact extraction ---------------------------------------- *)

(* Permissions whose dynamic check guards instruction [idx]: cutting the
   "granted" edges of every conditional branching on that permission's
   check result makes [idx] unreachable. *)
let guards_of_instr (reads : read array) (m : Ir.meth) idx =
  let tested i = match reads.(i) with Tested ps -> ps | _ -> SS.empty in
  let perms =
    Array.fold_left
      (fun acc r -> match r with Tested ps -> SS.union acc ps | _ -> acc)
      SS.empty reads
  in
  SS.fold
    (fun perm acc ->
      let cut i j =
        match m.Ir.body.(i) with
        | Ir.If_eqz _ when SS.mem perm (tested i) ->
            (* jumps away when denied; granted path is the fall-through *)
            j = i + 1
        | Ir.If_nez _ when SS.mem perm (tested i) ->
            (* jumps when granted *)
            j = m.Ir.targets.(i)
        | _ -> false
      in
      let reach = Cfg.reachable ~cut m in
      if not reach.(idx) then SS.add perm acc else acc)
    perms SS.empty

let intent_fact_of_site p icc =
  {
    if_actions = (if p.actions_top then None else Some (SS.elements p.actions));
    if_categories = SS.elements p.categories;
    if_data_types = SS.elements p.data_types;
    if_data_schemes = SS.elements p.data_schemes;
    if_data_hosts = SS.elements p.data_hosts;
    if_targets = SS.elements p.targets;
    if_extra_keys = SS.elements p.extra_keys;
    if_extra_taints = RS.elements p.extra_taints;
    if_icc = icc;
    if_wants_result = icc = Api.Start_activity_for_result;
    if_passive = icc = Api.Set_result;
    if_forwards_incoming = false;
  }

let forwarded_intent_fact icc =
  {
    if_actions = None;
    if_categories = [];
    if_data_types = [];
    if_data_schemes = [];
    if_data_hosts = [];
    if_targets = [];
    if_extra_keys = [];
    if_extra_taints = [ Resource.Icc ];
    if_icc = icc;
    if_wants_result = icc = Api.Start_activity_for_result;
    if_passive = icc = Api.Set_result;
    if_forwards_incoming = true;
  }

let extract_facts t (reads : (key, read array) KeyH.t) : facts =
  let intents = ref [] in
  let paths = ref [] in
  let uses = ref SS.empty in
  let dyn = ref false in
  let dyn_filters = ref [] in
  let add_path src snk guards =
    let fact = { pf_source = src; pf_sink = snk; pf_guards = guards } in
    if not (List.mem fact !paths) then paths := fact :: !paths
  in
  (* With k = 1, each context corresponds to a unique call site, so the
     permission checks guarding the call site also guard everything in the
     callee: propagate them transitively into the callee's facts. *)
  let callers = Hashtbl.create 16 in
  Hashtbl.iter
    (fun ((ccls, cmtd), idx) ctx ->
      Hashtbl.replace callers ctx (ccls, cmtd, idx))
    t.call_sites;
  let caller_keys_of ccls cmtd =
    KeyH.fold
      (fun k _ acc -> if k.kcls = ccls && k.kmtd = cmtd then k :: acc else acc)
      reads []
  in
  let entry_guard_memo = Hashtbl.create 16 in
  let rec entry_guards key =
    match Hashtbl.find_opt entry_guard_memo key with
    | Some g -> g
    | None ->
        Hashtbl.replace entry_guard_memo key SS.empty (* break cycles *);
        let g =
          if key.kctx = 0 then SS.empty
          else
            match Hashtbl.find_opt callers key.kctx with
            | None -> SS.empty
            | Some (ccls, cmtd, idx) -> (
                match find_internal_method t ccls cmtd with
                | None -> SS.empty
                | Some m ->
                    (* the callee is guarded only if every calling context
                       guards the call site *)
                    let caller_keys = caller_keys_of ccls cmtd in
                    List.fold_left
                      (fun acc ck ->
                        let here =
                          match KeyH.find_opt reads ck with
                          | Some rd ->
                              SS.union
                                (guards_of_instr rd m idx)
                                (entry_guards ck)
                          | None -> SS.empty
                        in
                        match acc with
                        | None -> Some here
                        | Some g -> Some (SS.inter g here))
                      None caller_keys
                    |> Option.value ~default:SS.empty)
        in
        Hashtbl.replace entry_guard_memo key g;
        g
  in
  KeyH.iter
    (fun key rd ->
      match find_internal_method t key.kcls key.kmtd with
      | None -> ()
      | Some m ->
          Array.iteri
            (fun idx instr ->
              match (instr, rd.(idx)) with
              | Ir.Invoke (_, mref, _), Args vals -> (
                  (match Api.permission_of mref with
                  | Some p -> uses := SS.add p !uses
                  | None -> ());
                  match Api.classify mref with
                  | Api.Sink r ->
                      let guards =
                        SS.elements
                          (SS.union (guards_of_instr rd m idx) (entry_guards key))
                      in
                      List.iter
                        (fun v ->
                          List.iter
                            (fun taint -> add_path taint r guards)
                            (Absval.taint_list v))
                        vals
                  | Api.Icc Api.Register_receiver ->
                      dyn := true;
                      (match vals with
                      | v :: _ ->
                          IS.iter
                            (fun sid ->
                              let p = props_of t sid in
                              if not p.actions_top then
                                dyn_filters :=
                                  ( (match SS.elements p.targets with
                                    | [ tgt ] -> Some tgt
                                    | _ -> None),
                                    SS.elements p.actions )
                                  :: !dyn_filters)
                            v.Absval.sites
                      | [] -> ())
                  | Api.Icc icc -> (
                      match vals with
                      | [] -> ()
                      | v :: _ ->
                          let guards =
                            SS.elements
                              (SS.union
                                 (guards_of_instr rd m idx)
                                 (entry_guards key))
                          in
                          IS.iter
                            (fun sid ->
                              let p = props_of t sid in
                              intents := intent_fact_of_site p icc :: !intents;
                              (* tainted extras leaving via ICC *)
                              RS.iter
                                (fun taint -> add_path taint Resource.Icc guards)
                                p.extra_taints)
                            v.Absval.sites;
                          if v.Absval.incoming then begin
                            intents := forwarded_intent_fact icc :: !intents;
                            add_path Resource.Icc Resource.Icc guards
                          end)
                  | _ -> ())
              | _ -> ())
            m.Ir.body)
    reads;
  {
    intents = List.rev !intents;
    paths = List.rev !paths;
    uses_permissions = SS.elements !uses;
    registers_dynamic_receiver = !dyn;
    dynamic_filters = List.rev !dyn_filters;
    reads_extra_keys = SS.elements t.read_keys;
    analyzed_methods = KeyH.length reads;
    fixpoint_rounds = 0;
    fixpoint_capped = false;
  }

let empty_facts =
  {
    intents = [];
    paths = [];
    uses_permissions = [];
    registers_dynamic_receiver = false;
    dynamic_filters = [];
    reads_extra_keys = [];
    analyzed_methods = 0;
    fixpoint_rounds = 0;
    fixpoint_capped = false;
  }

(* Analyze one component of the app: run the fixpoint from its lifecycle
   entry points and extract facts.  With [all_methods], every method of
   the component class is treated as a root — i.e. no entry-point
   reachability pruning, the behaviour of baseline tools that analyze
   whole classes (facts in dead code are then reported). *)
let analyze_component ?(k1 = true) ?(all_methods = false) apk
    (comp : Component.t) : facts =
  let t = create ~k1 apk in
  match Apk.component_class apk comp with
  | None -> empty_facts
  | Some cls ->
      let root_of (m : Ir.meth) =
        let key = { kcls = cls.Ir.cname; kmtd = m.Ir.mname; kctx = 0 } in
        let entry_regs = Array.make (max m.Ir.n_regs 1) Absval.bot in
        if m.Ir.n_params >= 1 then entry_regs.(0) <- Absval.incoming_intent;
        (key, m, entry_regs)
      in
      let roots =
        if all_methods then List.map root_of cls.Ir.methods
        else
          List.filter_map
            (fun entry -> Option.map root_of (Ir.find_method cls entry))
            (Apk.entry_methods comp.Component.kind)
      in
      let reads, rounds, capped = run t roots in
      {
        (extract_facts t reads) with
        fixpoint_rounds = rounds;
        fixpoint_capped = capped;
      }
