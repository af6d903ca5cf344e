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
     (the basis for code-level permission enforcement detection). *)

open Separ_dalvik
open Separ_android
module SS = Absval.SS
module RS = Absval.RS
module IS = Absval.IS
module IM = Map.Make (Int)

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

(* The register file is sparse and persistent: only registers whose value
   is not bottom are bound.  An instruction writes at most one register,
   so consecutive states share all but one path of the map, and a state
   costs O(log registers) to derive from its predecessor.  Bottom is
   never bound, so equal states have equal maps. *)
type state = { regs : Absval.t IM.t; result : Absval.t; reach : bool }

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

let get_reg s r = Option.value ~default:Absval.bot (IM.find_opt r s.regs)

let set_reg s r v =
  let regs =
    if Absval.is_bot v then IM.remove r s.regs else IM.add r v s.regs
  in
  if regs == s.regs then s else { s with regs }

let handle_intent_op t s op (args : int list) =
  let arg n = get_reg s (List.nth args n) in
  let sites v = IS.elements v.Absval.sites in
  match op with
  | Api.New_intent -> { s with result = Absval.bot }
  | Api.Get_intent -> { s with result = Absval.incoming_intent }
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
        (sites intent);
      s
  | Api.Add_category ->
      let intent = arg 0 and c = arg 1 in
      List.iter
        (fun sid ->
          let p = props_of t sid in
          match Absval.strings c with
          | Some ss ->
              grow_ss t (fun () -> p.categories) (fun v -> p.categories <- v) ss
          | None -> ())
        (sites intent);
      s
  | Api.Set_data_type ->
      let intent = arg 0 and d = arg 1 in
      List.iter
        (fun sid ->
          let p = props_of t sid in
          match Absval.strings d with
          | Some ss ->
              grow_ss t (fun () -> p.data_types) (fun v -> p.data_types <- v) ss
          | None -> ())
        (sites intent);
      s
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
        (sites intent);
      s
  | Api.Set_class_name ->
      let intent = arg 0 and c = arg 1 in
      List.iter
        (fun sid ->
          let p = props_of t sid in
          match Absval.strings c with
          | Some ss -> grow_ss t (fun () -> p.targets) (fun v -> p.targets <- v) ss
          | None -> ())
        (sites intent);
      s
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
        (sites intent);
      s
  | Api.Get_extra | Api.Get_all_extras ->
      let intent = arg 0 in
      (if intent.Absval.incoming && List.length args > 1 then
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
      { s with result = { Absval.str_top = true;
                          strs = SS.empty;
                          sites = IS.empty;
                          incoming = false;
                          taints;
                          perm_checks = SS.empty } }

let handle_invoke t key s idx (mref : Api.method_ref) (args : int list) =
  let arg_vals = List.map (get_reg s) args in
  match Api.classify mref with
  | Api.Source r ->
      { s with result = { (Absval.of_taints [ r ]) with Absval.str_top = true } }
  | Api.Sink _ -> { s with result = Absval.bot }
  | Api.Icc (Api.Bind_service | Api.Provider_query) ->
      (* binder- and cursor-mediated results: data produced by another
         component, i.e. ICC-sourced *)
      {
        s with
        result =
          { (Absval.of_taints [ Resource.Icc ]) with Absval.str_top = true };
      }
  | Api.Icc _ -> { s with result = Absval.bot }
  | Api.Intent_op op -> handle_intent_op t s op args
  | Api.Callback_reg ->
      (* the named methods of this class become additional roots: the
         framework may invoke them on user interaction *)
      (match args with
      | h :: _ -> (
          match Absval.strings (get_reg s h) with
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
      { s with result = Absval.bot }
  | Api.Broadcast_abort -> { s with result = Absval.bot }
  | Api.Permission_check -> (
      match args with
      | [] -> { s with result = Absval.bot }
      | p :: _ -> (
          match Absval.strings (get_reg s p) with
          | Some perms ->
              {
                s with
                result =
                  List.fold_left
                    (fun acc perm -> Absval.join acc (Absval.of_perm_check perm))
                    Absval.bot perms;
              }
          | None -> { s with result = Absval.bot }))
  | Api.Other ->
      if is_internal t mref.Api.cls then begin
        match find_internal_method t mref.Api.cls mref.Api.mtd with
        | None -> { s with result = Absval.bot }
        | Some m ->
            let ctx = if t.k1 then call_site_id t key idx else 0 in
            let callee =
              { kcls = mref.Api.cls; kmtd = mref.Api.mtd; kctx = ctx }
            in
            join_entry t callee arg_vals m.Ir.n_params m.Ir.n_regs;
            { s with result = ret_of t callee }
      end
      else { s with result = Absval.bot }

let transfer t key _i instr (s : state) : state =
  if not s.reach then s
  else
    match instr with
    | Ir.Const (r, Ir.Cstr str) -> set_reg s r (Absval.of_string str)
    | Ir.Const (r, _) -> set_reg s r Absval.bot
    | Ir.Move (d, src) -> set_reg s d (get_reg s src)
    | Ir.New_instance (r, cls) when cls = Api.c_intent ->
        set_reg s r (Absval.of_site (site_id t key _i))
    | Ir.New_instance (r, _) -> set_reg s r Absval.bot
    | Ir.Invoke (_, mref, args) -> handle_invoke t key s _i mref args
    | Ir.Move_result r -> set_reg s r s.result
    | Ir.Iget (d, _o, f) -> set_reg s d (field_get t f)
    | Ir.Iput (src, _o, f) ->
        field_put t f (get_reg s src);
        s
    | Ir.Sget (d, f) -> set_reg s d (field_get t f)
    | Ir.Sput (src, f) ->
        field_put t f (get_reg s src);
        s
    | Ir.New_array (r, _) -> set_reg s r (Absval.of_site (site_id t key _i))
    | Ir.Aput (src, arr, _) ->
        IS.iter (fun sid -> arr_put t sid (get_reg s src)) (get_reg s arr).Absval.sites;
        s
    | Ir.Aget (d, arr, _) ->
        set_reg s d
          (IS.fold
             (fun sid acc -> Absval.join acc (arr_get t sid))
             (get_reg s arr).Absval.sites Absval.bot)
    | Ir.If_eqz _ | Ir.If_nez _ | Ir.Goto _ | Ir.Label _ | Ir.Nop -> s
    | Ir.Return (Some r) ->
        join_ret t key (get_reg s r);
        s
    | Ir.Return None -> s

(* --- fixpoint over all registered methods ------------------------------ *)

let state_lattice : state Dataflow.lattice =
  {
    bot = { regs = IM.empty; result = Absval.bot; reach = false };
    join =
      (fun a b ->
        if not a.reach then b
        else if not b.reach then a
        else if a == b then a
        else
          {
            regs =
              (if a.regs == b.regs then a.regs
               else
                 IM.union (fun _ x y -> Some (Absval.join x y)) a.regs b.regs);
            result = Absval.join a.result b.result;
            reach = true;
          });
    equal =
      (fun a b ->
        a == b
        || a.reach = b.reach
           && (not a.reach
              || Absval.equal a.result b.result
                 && (a.regs == b.regs || IM.equal Absval.equal a.regs b.regs)));
  }

let analyze_method t key (m : Ir.meth) entry_regs : state array =
  let regs = ref IM.empty in
  Array.iteri
    (fun i v -> if not (Absval.is_bot v) then regs := IM.add i v !regs)
    entry_regs;
  let entry = { regs = !regs; result = Absval.bot; reach = true } in
  Dataflow.forward state_lattice ~entry ~transfer:(transfer t key) m

(* Rounds of the global fixpoint before it gives up.  Each round analyzes
   the methods registered before it started, so a call chain deeper than
   this is cut short: the facts of its deepest methods are missing. *)
let max_rounds = 100

(* Run the global fixpoint from the given roots.  Returns the final
   in-states per method key, the rounds run, and whether the cap stopped
   the iteration before it converged. *)
let run t (roots : (key * Ir.meth * Absval.t array) list) =
  List.iter
    (fun (key, m, entry_regs) ->
      join_entry t key (Array.to_list entry_regs) m.Ir.n_params m.Ir.n_regs)
    roots;
  let states = KeyH.create 16 in
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
            let st = analyze_method t key m entry_regs in
            KeyH.replace states key st)
      keys;
    if not t.changed then continue := false
  done;
  (states, !rounds, !continue)

(* --- post-pass: fact extraction ---------------------------------------- *)

(* Permissions whose dynamic check guards instruction [idx]: cutting the
   "granted" edges of every conditional branching on that permission's
   check result makes [idx] unreachable. *)
let guards_of_instr (states : state array) (m : Ir.meth) idx =
  let perms = ref SS.empty in
  for i = 0 to Array.length m.Ir.body - 1 do
    match m.Ir.body.(i) with
    | Ir.If_eqz (r, _) | Ir.If_nez (r, _) ->
        if states.(i).reach then
          perms := SS.union !perms (get_reg states.(i) r).Absval.perm_checks
    | _ -> ()
  done;
  SS.fold
    (fun perm acc ->
      let cut i j =
        match m.Ir.body.(i) with
        | Ir.If_eqz (r, _) when SS.mem perm (get_reg states.(i) r).Absval.perm_checks
          ->
            (* jumps away when denied; granted path is the fall-through *)
            j = i + 1
        | Ir.If_nez (r, _) when SS.mem perm (get_reg states.(i) r).Absval.perm_checks
          ->
            (* jumps when granted *)
            j = m.Ir.targets.(i)
        | _ -> false
      in
      let reach = Cfg.reachable ~cut m in
      if not reach.(idx) then SS.add perm acc else acc)
    !perms SS.empty

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

let extract_facts t (states : (key, state array) KeyH.t) : facts =
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
      states []
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
                          match KeyH.find_opt states ck with
                          | Some st ->
                              SS.union
                                (guards_of_instr st m idx)
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
    (fun key st ->
      match find_internal_method t key.kcls key.kmtd with
      | None -> ()
      | Some m ->
          Array.iteri
            (fun idx instr ->
              if idx < Array.length st && st.(idx).reach then
                match instr with
                | Ir.Invoke (_, mref, args) -> (
                    (match Api.permission_of mref with
                    | Some p -> uses := SS.add p !uses
                    | None -> ());
                    match Api.classify mref with
                    | Api.Sink r ->
                        let guards =
                          SS.elements
                            (SS.union
                               (guards_of_instr st m idx)
                               (entry_guards key))
                        in
                        List.iter
                          (fun a ->
                            List.iter
                              (fun taint -> add_path taint r guards)
                              (Absval.taint_list (get_reg st.(idx) a)))
                          args
                    | Api.Icc Api.Register_receiver ->
                        dyn := true;
                        (match args with
                        | intent_reg :: _ ->
                            let v = get_reg st.(idx) intent_reg in
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
                        match args with
                        | [] -> ()
                        | intent_reg :: _ ->
                            let v = get_reg st.(idx) intent_reg in
                            let guards =
                              SS.elements
                                (SS.union
                                   (guards_of_instr st m idx)
                                   (entry_guards key))
                            in
                            IS.iter
                              (fun sid ->
                                let p = props_of t sid in
                                intents :=
                                  intent_fact_of_site p icc :: !intents;
                                (* tainted extras leaving via ICC *)
                                RS.iter
                                  (fun taint ->
                                    add_path taint Resource.Icc guards)
                                  p.extra_taints)
                              v.Absval.sites;
                            if v.Absval.incoming then begin
                              intents := forwarded_intent_fact icc :: !intents;
                              add_path Resource.Icc Resource.Icc guards
                            end)
                    | _ -> ())
                | _ -> ())
            m.Ir.body)
    states;
  {
    intents = List.rev !intents;
    paths = List.rev !paths;
    uses_permissions = SS.elements !uses;
    registers_dynamic_receiver = !dyn;
    dynamic_filters = List.rev !dyn_filters;
    reads_extra_keys = SS.elements t.read_keys;
    analyzed_methods = KeyH.length states;
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
      let states, rounds, capped = run t roots in
      {
        (extract_facts t states) with
        fixpoint_rounds = rounds;
        fixpoint_capped = capped;
      }
