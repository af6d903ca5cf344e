(* The simulated Android device and APE, the policy enforcer.

   The device installs APKs, resolves and dispatches intents between
   components (including dynamically registered broadcast receivers,
   which the static extractor deliberately does not see), and executes
   component code with a small IR interpreter whose API semantics agree
   with the static analyses.

   Enforcement follows the paper's architecture: every ICC operation is
   routed through a hook (the PEP); when enforcement is on, the hook
   builds an event record and consults the PDP against the synthesized
   policies — the compiled matcher ({!Separ_policy.Compile.decide_full}),
   or in [Reference] mode the uncompiled scan
   ({!Separ_policy.Policy.decide_both}); prompts go to a user-consent
   callback; refused or denied operations are skipped without crashing
   the caller — the asynchronous call simply never completes. *)

open Separ_android
open Separ_dalvik
module Policy = Separ_policy.Policy
module Compile = Separ_policy.Compile
module Metrics = Separ_obs.Metrics

(* PEP telemetry: counts and per-hook PDP latency, the RQ4 breakdown.
   The extra clock reads happen only when metrics are on, so disabled
   telemetry costs one branch per hook. *)
let c_hook_checks = Metrics.counter "runtime.hook_checks"
let c_allowed = Metrics.counter "runtime.allowed"
let c_denied = Metrics.counter "runtime.denied"
let c_prompted = Metrics.counter "runtime.prompted"

let h_hook_latency =
  Metrics.histogram
    ~buckets:[| 0.5; 1.0; 2.0; 5.0; 10.0; 25.0; 50.0; 100.0; 500.0 |]
    "runtime.hook_latency_us"

(* Hot policy swap telemetry: how often the store is replaced under
   traffic, and how long the off-to-the-side recompilation takes. *)
let c_policy_swaps = Metrics.counter "runtime.policy_swaps"

let h_swap_latency =
  Metrics.histogram
    ~buckets:[| 10.0; 50.0; 100.0; 500.0; 1000.0; 5000.0; 25000.0; 100000.0 |]
    "runtime.swap_latency_us"

(* How the hook consults the PDP.
   [Compiled] (default): the in-process compiled decision structure —
   one event view, single-pass send+receive evaluation, no marshalling.
   [Reference]: the uncompiled single-pass scan over the store, same
   view sharing; the oracle the compiled path is tested against. *)
type pdp_mode = Compiled | Reference

(* The PDP state the hook consults, as ONE immutable snapshot: the hook
   reads [t.pdp] exactly once per check, so a concurrent
   [swap_policies] — which builds a full replacement off to the side
   and then performs a single pointer write — can never expose a
   half-swapped store (policies from one store, compiled form or
   analyzed set from another). *)
type pdp = {
  pd_policies : Policy.t list;
  pd_compiled : Compile.t;
  pd_analyzed : string list; (* packages covered by the last analysis *)
}

let build_pdp policies analyzed =
  {
    pd_policies = policies;
    pd_compiled = Compile.compile policies;
    pd_analyzed = analyzed;
  }

type t = {
  mutable apps : Apk.t list;
  mutable pdp : pdp;
  mutable pdp_mode : pdp_mode;
  mutable enforcement : bool;
  mutable consent : Policy.t -> Policy.icc_event -> bool;
  mutable effects : Effect.t list; (* newest first *)
  mutable dyn_receivers : (string * string * Intent_filter.t) list;
  mutable abort_requested : bool; (* set by abortBroadcast during delivery *)
  mutable callbacks : (string * string * string) list;
      (* (package, component, handler method) registered click handlers *)
  fields : (string * string, Value.t) Hashtbl.t; (* (package, field) heap *)
  mutable fuel : int;
  max_depth : int;
}

let create ?(enforcement = false) () =
  {
    apps = [];
    pdp = build_pdp [] [];
    pdp_mode = Compiled;
    enforcement;
    consent = (fun _ _ -> false);
    effects = [];
    dyn_receivers = [];
    abort_requested = false;
    callbacks = [];
    fields = Hashtbl.create 16;
    fuel = 0;
    max_depth = 24;
  }

let install t apk = t.apps <- t.apps @ [ apk ]

let set_policies t policies analyzed_packages =
  t.pdp <- build_pdp policies analyzed_packages

(* Hot swap: recompile off to the side, then replace the snapshot with
   one pointer write.  Checks running before the write see the old
   store in full; checks after see the new one in full. *)
let swap_policies ?analyzed t policies =
  let analyzed =
    match analyzed with Some a -> a | None -> t.pdp.pd_analyzed
  in
  if Metrics.is_enabled () then begin
    let t0 = Separ_obs.Trace.now_us () in
    let next = build_pdp policies analyzed in
    t.pdp <- next;
    Metrics.observe h_swap_latency (Separ_obs.Trace.now_us () -. t0);
    Metrics.incr c_policy_swaps
  end
  else t.pdp <- build_pdp policies analyzed

let set_pdp_mode t mode = t.pdp_mode <- mode
let policies t = t.pdp.pd_policies
let set_enforcement t on = t.enforcement <- on
let set_consent t f = t.consent <- f
let effects t = List.rev t.effects
let clear_effects t = t.effects <- []
let emit t e = t.effects <- e :: t.effects

let app_permissions apk = apk.Apk.manifest.Manifest.uses_permissions

let find_app t pkg = List.find_opt (fun a -> Apk.package a = pkg) t.apps

(* --- interpretation ------------------------------------------------------ *)

type ctx = {
  device : t;
  apk : Apk.t;
  component : string;
  caller_app : string option;
  caller_perms : Permission.t list;
  result_to : (string * string) option; (* app, component *)
  incoming : Value.t;
  depth : int;
}

exception Out_of_fuel

let synthetic_source_value = function
  | Resource.Location -> "37.4220,-122.0841"
  | Resource.Imei -> "356938035643809"
  | Resource.Phone_number -> "+15551234567"
  | Resource.Contacts -> "alice:+15550001111;bob:+15550002222"
  | Resource.Calendar -> "meeting@10am"
  | Resource.Sms_inbox -> "otp:482910"
  | Resource.Call_log -> "+15559998888@12:05"
  | Resource.Camera_data -> "<jpeg>"
  | Resource.Microphone -> "<pcm>"
  | Resource.Accounts -> "user@example.com"
  | Resource.Browser_history -> "bank.example.com"
  | Resource.Sdcard_data -> "<file>"
  | Resource.Device_info -> "serial:9f27a"
  | r -> Resource.to_string r

let rec exec_method (ctx : ctx) (m : Ir.meth) (args : Value.t list) : Value.t =
  if ctx.depth > ctx.device.max_depth then Vnull
  else begin
    let regs = Array.make (max m.Ir.n_regs 1) Value.Vnull in
    List.iteri (fun i v -> if i < m.Ir.n_regs then regs.(i) <- v) args;
    let last_result = ref Value.Vnull in
    let pkg = Apk.package ctx.apk in
    let n = Array.length m.Ir.body in
    let ret = ref Value.Vnull in
    let pc = ref 0 in
    let running = ref true in
    while !running && !pc < n do
      ctx.device.fuel <- ctx.device.fuel - 1;
      if ctx.device.fuel <= 0 then raise Out_of_fuel;
      let next = ref (!pc + 1) in
      (match m.Ir.body.(!pc) with
      | Ir.Const (r, Ir.Cstr s) -> regs.(r) <- Value.Vstr (s, [])
      | Ir.Const (r, Ir.Cint i) -> regs.(r) <- Value.Vint i
      | Ir.Const (r, Ir.Cnull) -> regs.(r) <- Value.Vnull
      | Ir.Move (d, s) -> regs.(d) <- regs.(s)
      | Ir.New_instance (r, cls) ->
          if cls = Api.c_intent then
            regs.(r) <- Value.Vintent (Value.new_intent_obj ())
          else regs.(r) <- Value.Vnull
      | Ir.Invoke (_, mref, arg_regs) ->
          last_result :=
            invoke ctx (List.map (fun r -> regs.(r)) arg_regs) mref
      | Ir.Move_result r -> regs.(r) <- !last_result
      | Ir.Iget (d, _, f) | Ir.Sget (d, f) ->
          regs.(d) <-
            Option.value ~default:Value.Vnull
              (Hashtbl.find_opt ctx.device.fields (pkg, f))
      | Ir.Iput (s, _, f) | Ir.Sput (s, f) ->
          Hashtbl.replace ctx.device.fields (pkg, f) regs.(s)
      | Ir.New_array (d, n) ->
          let size =
            match regs.(n) with Value.Vint k -> max 0 (min k 4096) | _ -> 0
          in
          regs.(d) <- Value.Varray (Array.make size Value.Vnull)
      | Ir.Aput (s, a, i) -> (
          match (regs.(a), regs.(i)) with
          | Value.Varray arr, Value.Vint k when k >= 0 && k < Array.length arr
            ->
              arr.(k) <- regs.(s)
          | _ -> ())
      | Ir.Aget (d, a, i) -> (
          match (regs.(a), regs.(i)) with
          | Value.Varray arr, Value.Vint k when k >= 0 && k < Array.length arr
            ->
              regs.(d) <- arr.(k)
          | _ -> regs.(d) <- Value.Vnull)
      | Ir.If_eqz (r, _) ->
          if not (Value.truthy regs.(r)) then next := m.Ir.targets.(!pc)
      | Ir.If_nez (r, _) ->
          if Value.truthy regs.(r) then next := m.Ir.targets.(!pc)
      | Ir.Goto _ -> next := m.Ir.targets.(!pc)
      | Ir.Label _ | Ir.Nop -> ()
      | Ir.Return (Some r) ->
          ret := regs.(r);
          running := false
      | Ir.Return None -> running := false);
      pc := !next
    done;
    !ret
  end

and invoke (ctx : ctx) (args : Value.t list) (mref : Api.method_ref) : Value.t =
  let t = ctx.device in
  let app = Apk.package ctx.apk in
  let perms = app_permissions ctx.apk in
  let arg n = List.nth_opt args n |> Option.value ~default:Value.Vnull in
  match Api.classify mref with
  | Api.Source r ->
      if not (Api.allowed perms mref) then begin
        emit t (Effect.Permission_refused { app; api = mref.Api.mtd });
        Value.Vnull
      end
      else begin
        emit t (Effect.Source_read { app; resource = r });
        Value.Vstr (synthetic_source_value r, [ r ])
      end
  | Api.Sink r ->
      if not (Api.allowed perms mref) then begin
        emit t (Effect.Permission_refused { app; api = mref.Api.mtd });
        Value.Vnull
      end
      else begin
        let taint =
          List.sort_uniq Resource.compare (List.concat_map Value.taint_of args)
        in
        (match r with
        | Resource.Sms ->
            emit t
              (Effect.Sms_sent
                 {
                   app;
                   number = Value.as_string (arg 0);
                   body = Value.as_string (arg 1);
                   taint;
                 })
        | Resource.Network ->
            emit t
              (Effect.Network_sent
                 { app; payload = Value.as_string (arg 0); taint })
        | Resource.Log ->
            emit t
              (Effect.Log_written { app; line = Value.as_string (arg 0); taint })
        | Resource.Sdcard ->
            emit t
              (Effect.File_written { app; data = Value.as_string (arg 0); taint })
        | Resource.Display ->
            emit t
              (Effect.Notification_shown { app; text = Value.as_string (arg 0) })
        | _ -> ());
        Value.Vnull
      end
  | Api.Broadcast_abort ->
      t.abort_requested <- true;
      Value.Vnull
  | Api.Callback_reg ->
      (match arg 0 with
      | Value.Vstr (handler, _) ->
          t.callbacks <- (app, ctx.component, handler) :: t.callbacks
      | _ -> ());
      Value.Vnull
  | Api.Intent_op op -> intent_op ctx op args
  | Api.Permission_check -> (
      match arg 0 with
      | Value.Vstr (p, _) ->
          Value.Vint (if List.mem p ctx.caller_perms then 1 else 0)
      | _ -> Value.Vint 0)
  | Api.Icc Api.Register_receiver -> (
      (* the intent argument describes the receiver registration: its
         explicit target names the receiver class, its action/category
         fields the dynamic filter *)
      match arg 0 with
      | Value.Vintent o ->
          (match o.Value.o_target with
          | Some cls ->
              let filter =
                Intent_filter.make
                  ~actions:(Option.to_list o.Value.o_action)
                  ~categories:o.Value.o_categories ()
              in
              t.dyn_receivers <- (app, cls, filter) :: t.dyn_receivers
          | None -> ());
          Value.Vnull
      | _ -> Value.Vnull)
  | Api.Icc Api.Set_result -> (
      match (arg 0, ctx.result_to) with
      | Value.Vintent o, Some (rapp, rcmp) ->
          deliver_result ctx o rapp rcmp;
          Value.Vnull
      | _ -> Value.Vnull)
  | Api.Icc icc -> (
      match arg 0 with
      | Value.Vintent o ->
          if icc = Api.Start_activity_for_result then
            o.Value.o_wants_result <- true;
          dispatch ctx icc o
      | _ -> Value.Vnull)
  | Api.Other -> (
      match Apk.find_class ctx.apk mref.Api.cls with
      | Some cls -> (
          match Ir.find_method cls mref.Api.mtd with
          | Some m -> exec_method { ctx with depth = ctx.depth + 1 } m args
          | None -> Value.Vnull)
      | None -> Value.Vnull)

and intent_op ctx op args =
  let arg n = List.nth_opt args n |> Option.value ~default:Value.Vnull in
  let with_intent f =
    match arg 0 with Value.Vintent o -> f o | _ -> Value.Vnull
  in
  match op with
  | Api.New_intent -> Value.Vnull (* constructor side effect only *)
  | Api.Get_intent -> ctx.incoming
  | Api.Set_action ->
      with_intent (fun o ->
          o.Value.o_action <- Some (Value.as_string (arg 1));
          Value.Vnull)
  | Api.Add_category ->
      with_intent (fun o ->
          o.Value.o_categories <-
            o.Value.o_categories @ [ Value.as_string (arg 1) ];
          Value.Vnull)
  | Api.Set_data_type ->
      with_intent (fun o ->
          o.Value.o_data_type <- Some (Value.as_string (arg 1));
          Value.Vnull)
  | Api.Set_data_scheme ->
      with_intent (fun o ->
          let scheme, host = Intent.split_uri (Value.as_string (arg 1)) in
          o.Value.o_data_scheme <- Some scheme;
          o.Value.o_data_host <- host;
          Value.Vnull)
  | Api.Set_class_name ->
      with_intent (fun o ->
          o.Value.o_target <- Some (Value.as_string (arg 1));
          Value.Vnull)
  | Api.Put_extra ->
      with_intent (fun o ->
          let key = Value.as_string (arg 1) in
          let v = arg 2 in
          o.Value.o_extras <-
            (key, (Value.as_string v, Value.taint_of v))
            :: List.remove_assoc key o.Value.o_extras;
          Value.Vnull)
  | Api.Get_extra ->
      with_intent (fun o ->
          let key = Value.as_string (arg 1) in
          match List.assoc_opt key o.Value.o_extras with
          | Some (v, taint) -> Value.Vstr (v, taint)
          | None -> Value.Vnull)
  | Api.Get_all_extras ->
      with_intent (fun o ->
          let parts = List.map (fun (k, (v, _)) -> k ^ "=" ^ v) o.Value.o_extras in
          let taint =
            List.sort_uniq Resource.compare
              (List.concat_map (fun (_, (_, t)) -> t) o.Value.o_extras)
          in
          Value.Vstr (String.concat ";" parts, taint))

(* Resolution: candidate (apk, component) receivers for an intent sent
   from [sender_pkg]. *)
and resolve t ~sender_pkg (intent : Intent.t) (icc : Api.icc_kind) :
    (Apk.t * Component.t) list =
  let delivery = Api.delivery_kind icc in
  let kind_ok (c : Component.t) = c.Component.kind = delivery in
  match intent.Intent.target with
  | Some cls ->
      (* explicit addressing reaches private components only within the
         sending app; other apps' components must be exported *)
      List.filter_map
        (fun apk ->
          match Manifest.component apk.Apk.manifest cls with
          | Some c
            when kind_ok c
                 && (Apk.package apk = sender_pkg || Component.is_public c) ->
              Some (apk, c)
          | _ -> None)
        t.apps
  | None ->
      let static =
        List.concat_map
          (fun apk ->
            List.filter_map
              (fun c ->
                if
                  kind_ok c && Component.is_public c
                  && List.exists
                       (fun f -> Intent_filter.matches ~intent f)
                       c.Component.intent_filters
                then Some (apk, c)
                else None)
              apk.Apk.manifest.Manifest.components)
          t.apps
      in
      let dynamic =
        if icc = Api.Send_broadcast then
          List.filter_map
            (fun (pkg, cls, f) ->
              if Intent_filter.matches ~intent f then
                match find_app t pkg with
                | Some apk -> (
                    match Manifest.component apk.Apk.manifest cls with
                    | Some c -> Some (apk, c)
                    | None ->
                        (* dynamically registered handler without manifest
                           entry: synthesize a receiver component *)
                        Some
                          ( apk,
                            Component.make ~name:cls ~kind:Component.Receiver
                              () ))
                | None -> None
              else None)
            t.dyn_receivers
        else []
      in
      static @ dynamic

(* PEP: one delivery attempt, policy-checked. *)
and deliver_one ctx icc (o : Value.intent_obj) (rapk : Apk.t)
    (rcomp : Component.t) =
  let t = ctx.device in
  let sender_app = Apk.package ctx.apk in
  let sender_perms = app_permissions ctx.apk in
  let intent = Value.to_intent o in
  (* system permission gate: component-level required permission *)
  let perm_ok =
    match rcomp.Component.permission with
    | Some p -> List.mem p sender_perms
    | None -> true
  in
  if not perm_ok then begin
    emit t
      (Effect.Permission_refused
         { app = sender_app; api = "delivery:" ^ rcomp.Component.name });
    Value.Vnull
  end
  else begin
    let proceed () =
      emit t
        (Effect.Intent_delivered
           {
             sender_app;
             sender = ctx.component;
             receiver_app = Apk.package rapk;
             receiver = rcomp.Component.name;
             icc;
             intent;
           });
      match Apk.component_class rapk rcomp with
      | None -> Value.Vnull
      | Some cls -> (
          let entry = Apk.entry_for_icc icc in
          match Ir.find_method cls entry with
          | None -> Value.Vnull
          | Some m ->
              let ctx' =
                {
                  ctx with
                  apk = rapk;
                  component = rcomp.Component.name;
                  caller_app = Some sender_app;
                  caller_perms = sender_perms;
                  result_to =
                    (if intent.Intent.wants_result then
                       Some (sender_app, ctx.component)
                     else None);
                  incoming = Value.Vintent o;
                  depth = ctx.depth + 1;
                }
              in
              let result = exec_method ctx' m [ Value.Vintent o ] in
              (* the framework then drives the rest of the lifecycle *)
              List.iter
                (fun cb ->
                  match Ir.find_method cls cb with
                  | Some cbm ->
                      ignore (exec_method ctx' cbm [ Value.Vintent o ])
                  | None -> ())
                (Apk.lifecycle_after entry);
              result)
    in
    if not t.enforcement then proceed ()
    else begin
      (* Read the PDP snapshot once: event construction and the decision
         both use the same store, even if a consent callback (or any
         re-entrant code) swaps policies mid-check. *)
      let pdp = t.pdp in
      let ev =
        Policy.
          {
            ev_kind = Icc_receive;
            ev_sender_component = ctx.component;
            ev_sender_app = sender_app;
            ev_sender_installed_at_analysis =
              List.mem sender_app pdp.pd_analyzed;
            ev_sender_permissions = sender_perms;
            ev_intent = intent;
            ev_receiver_component = rcomp.Component.name;
            ev_receiver_app = Apk.package rapk;
          }
      in
      (* Both send-side and receive-side policies are evaluated here in
         one pass — the hook observes the full delivery, in-process. *)
      let consult () =
        match t.pdp_mode with
        | Compiled -> Compile.decide_full pdp.pd_compiled ev
        | Reference -> Policy.decide_both pdp.pd_policies ev
      in
      let decision =
        if Metrics.is_enabled () then begin
          let t0 = Separ_obs.Trace.now_us () in
          let d = consult () in
          Metrics.observe h_hook_latency (Separ_obs.Trace.now_us () -. t0);
          Metrics.incr c_hook_checks;
          (match d with
          | Policy.Allowed -> Metrics.incr c_allowed
          | Policy.Denied _ -> Metrics.incr c_denied
          | Policy.Prompted _ -> Metrics.incr c_prompted);
          d
        end
        else consult ()
      in
      match decision with
      | Policy.Allowed -> proceed ()
      | Policy.Denied p ->
          emit t
            (Effect.Delivery_blocked
               {
                 policy_id = p.Policy.p_id;
                 sender = ctx.component;
                 receiver = rcomp.Component.name;
               });
          Value.Vnull
      | Policy.Prompted p ->
          let approved = t.consent p ev in
          emit t
            (Effect.Prompt_shown { policy_id = p.Policy.p_id; approved });
          if approved then proceed ()
          else begin
            emit t
              (Effect.Delivery_blocked
                 {
                   policy_id = p.Policy.p_id;
                   sender = ctx.component;
                   receiver = rcomp.Component.name;
                 });
            Value.Vnull
          end
    end
  end

and dispatch ctx icc (o : Value.intent_obj) : Value.t =
  let t = ctx.device in
  let intent = Value.to_intent o in
  match resolve t ~sender_pkg:(Apk.package ctx.apk) intent icc with
  | [] ->
      emit t
        (Effect.No_receiver
           { sender = ctx.component; action = intent.Intent.action });
      Value.Vnull
  | candidates ->
      (* Broadcasts go to every matching receiver, highest filter priority
         first; a receiver may consume the broadcast (abortBroadcast), in
         which case lower-priority receivers never see it.  Other ICC
         kinds are point-to-point; with several implicit matches the most
         recently installed wins — the pre-Lollipop ambiguity that makes
         intent hijacking by a later-installed app possible. *)
      if icc = Api.Send_broadcast then begin
        let priority_of (_, (rcomp : Component.t)) =
          List.fold_left
            (fun acc f ->
              if Intent_filter.matches ~intent f then
                max acc f.Intent_filter.priority
              else acc)
            min_int rcomp.Component.intent_filters
        in
        let ordered =
          List.stable_sort
            (fun a b -> compare (priority_of b) (priority_of a))
            candidates
        in
        t.abort_requested <- false;
        let rec deliver = function
          | [] -> ()
          | (rapk, rcomp) :: rest ->
              ignore (deliver_one ctx icc o rapk rcomp);
              if not t.abort_requested then deliver rest
        in
        deliver ordered;
        t.abort_requested <- false;
        Value.Vnull
      end
      else
        deliver_one ctx icc o
          (fst (List.nth candidates (List.length candidates - 1)))
          (snd (List.nth candidates (List.length candidates - 1)))

and deliver_result ctx (o : Value.intent_obj) rapp rcmp =
  let t = ctx.device in
  match find_app t rapp with
  | None -> ()
  | Some rapk -> (
      match Manifest.component rapk.Apk.manifest rcmp with
      | None -> ()
      | Some rcomp -> ignore (deliver_one ctx Api.Set_result o rapk rcomp))

(* --- public entry points ------------------------------------------------- *)

let root_ctx t apk component =
  {
    device = t;
    apk;
    component;
    caller_app = None;
    caller_perms = [];
    result_to = None;
    incoming = Value.Vnull;
    depth = 0;
  }

(* Launch a component directly (as if the user opened it), running entry
   method [entry] with an empty intent. *)
let start_component ?entry ?(intent = Intent.empty) t ~pkg ~component =
  match find_app t pkg with
  | None -> invalid_arg ("Device.start_component: app not installed: " ^ pkg)
  | Some apk -> (
      let entry =
        match entry with
        | Some entry -> entry
        | None ->
            Option.value ~default:"onCreate" (Apk.default_entry apk component)
      in
      match Apk.find_class apk component with
      | None -> ()
      | Some cls -> (
          match Ir.find_method cls entry with
          | None -> ()
          | Some m ->
              t.fuel <- 200_000;
              let o = Value.of_intent intent in
              let ctx =
                { (root_ctx t apk component) with incoming = Value.Vintent o }
              in
              (try
                 ignore (exec_method ctx m [ Value.Vintent o ]);
                 List.iter
                   (fun cb ->
                     match Ir.find_method cls cb with
                     | Some cbm ->
                         ignore (exec_method ctx cbm [ Value.Vintent o ])
                     | None -> ())
                   (Apk.lifecycle_after entry)
               with Out_of_fuel -> ())))

(* Simulate a user tap: run every click handler the component has
   registered. *)
let click t ~pkg ~component =
  match find_app t pkg with
  | None -> invalid_arg ("Device.click: app not installed: " ^ pkg)
  | Some apk ->
      List.iter
        (fun (p, c, handler) ->
          if p = pkg && c = component then
            match Apk.find_class apk component with
            | None -> ()
            | Some cls -> (
                match Ir.find_method cls handler with
                | None -> ()
                | Some m ->
                    t.fuel <- 200_000;
                    let ctx = root_ctx t apk component in
                    (try ignore (exec_method ctx m [ Value.Vnull ])
                     with Out_of_fuel -> ())))
        (List.rev t.callbacks)

(* Inject an intent from outside any installed app (adb-style); used by
   tests to probe delivery. *)
let inject_intent ?(icc = Api.Start_service) ?(sender_app = "external")
    ?(sender_perms = []) t (intent : Intent.t) =
  t.fuel <- 200_000;
  let shell_manifest =
    Manifest.make ~package:sender_app ~uses_permissions:sender_perms ()
  in
  let shell = Apk.make ~manifest:shell_manifest ~classes:[] in
  let ctx = root_ctx t shell "shell" in
  try ignore (dispatch ctx icc (Value.of_intent intent)) with Out_of_fuel -> ()
