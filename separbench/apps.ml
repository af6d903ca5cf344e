(* Seeded apps built with the public Builder API.

   - Partner apps for the store stream.  Generator apps each use their
     own action strings, so a store of them has no inter-app ICC and
     every scope bundle holds one app.  Partners send on, and listen
     to, a small shared action vocabulary whose popularity is
     Zipf-distributed, so scope bundles span several apps and an update
     can touch several of them.
   - The fleet app for the device workload: one launcher activity that
     makes a fixed number of hooked startService calls into services
     named after the policy store's population. *)

open Separ
module B = Builder
module Rng = Separ_workload.Rng

(* Cumulative Zipf(s) weights over ranks [0, n). *)
let zipf_cdf ~n ~s =
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(* The rank at quantile [u] in [0, 1). *)
let zipf_rank cdf u =
  let last = Array.length cdf - 1 in
  let rec go i = if i >= last || u < cdf.(i) then i else go (i + 1) in
  go 0

let shared_action k = Printf.sprintf "org.shared.action.A%02d" k
let sources = [ Resource.Location; Resource.Imei; Resource.Contacts; Resource.Accounts ]

let filler rng b =
  for k = 1 to 4 + Rng.int rng 12 do
    let r = B.const_str b (Printf.sprintf "w%d" k) in
    B.sput b ~field:(Printf.sprintf "F%d" (k mod 5)) ~src:r
  done

(* Build [version] of partner app [idx]: a sender activity that fires
   [sends] implicit intents on shared actions (sometimes carrying a
   sensitive value), and an exported service listening on shared action
   [listens] that logs or displays what it gets.  The first intent goes
   to the Zipf rank at quantile [quantile], the second a fixed step
   further.  Versions differ in sent actions, payloads and sinks, so an
   update moves the app's ICC footprint. *)
let partner ~cdf ~seed ~idx ~listens ~quantile ~sends ~version =
  let rng = Rng.create ((seed * 1_000_003) + (idx * 7_919) + (version * 104_729)) in
  let pkg = Printf.sprintf "partner.app%04d" idx in
  let send = Printf.sprintf "P%04d_Send" idx and recv = Printf.sprintf "P%04d_Recv" idx in
  let leaked = Rng.choose rng sources in
  let sender =
    B.meth ~name:"onCreate" ~params:1 (fun b ->
        filler rng b;
        for k = 0 to sends - 1 do
          let i = B.new_intent b in
          let u = Float.rem (quantile +. (0.381966 *. float_of_int k)) 1.0 in
          B.set_action b i (shared_action (zipf_rank cdf u));
          let v =
            if Rng.bool rng 0.5 then B.source_call b leaked else B.const_str b "hello"
          in
          B.put_extra b i ~key:"payload" ~value:v;
          B.start_service b i
        done)
  in
  let logs = Rng.bool rng 0.5 in
  let receiver =
    B.meth ~name:"onStartCommand" ~params:1 (fun b ->
        let v = B.get_string_extra b 0 ~key:"payload" in
        if logs then B.write_log b ~payload:v
        else B.invoke b (Api.mref Api.c_notification "notify") [ v ])
  in
  let listens = shared_action listens in
  Apk.make
    ~manifest:
      (Manifest.make ~package:pkg
         ~uses_permissions:(Option.to_list (Resource.permission leaked))
         ~components:
           [
             Component.make ~name:send ~kind:Component.Activity ();
             Component.make ~name:recv ~kind:Component.Service
               ~intent_filters:[ Intent_filter.make ~actions:[ listens ] () ]
               ();
           ]
         ())
    ~classes:[ B.cls ~name:send [ sender ]; B.cls ~name:recv [ receiver ] ]

(* Names shared by the fleet app and the policy store's population. *)
let svc i = "Svc" ^ string_of_int i
let cmp i = "Cmp" ^ string_of_int i
let act i = "com.bench.ACT" ^ string_of_int i
let fleet_package = "bench.fleet"

(* The service body: representative work, as a real service would do. *)
let callee name =
  B.cls ~name
    [
      B.meth ~name:"onStartCommand" ~params:1 (fun b ->
          let v = B.get_string_extra b 0 ~key:"k" in
          let skip = B.fresh_label b in
          B.if_eqz b v skip;
          B.sput b ~field:"last" ~src:v;
          let w = B.sget b ~field:"last" in
          B.move b ~dst:0 ~src:w;
          B.place_label b skip;
          let handled = B.const_str b "handled" in
          B.invoke b (Api.mref Api.c_notification "notify") [ handled ]);
    ]

(* The fleet app: a launcher (named after a population component) whose
   onCreate makes [checks] startService calls, round-robin over
   [services] distinct population services, exactly half explicit and
   half by the service's action, a quarter carrying a tainted extra, in
   seeded order.  The fixed proportions keep launch cost alike across
   seeds; the names decide which policies match.  Every call resolves
   to an installed service, so each one is a hooked check.  Returns the
   app and the launcher's component name. *)
let fleet_app ~seed ~pop ~services ~checks =
  let rng = Rng.create ((seed * 7_368_787) + 11) in
  let ids = Array.init pop Fun.id in
  Util.shuffle rng ids;
  let targets = Array.init (min services pop) (fun k -> (ids.(k), Rng.int rng pop)) in
  let launcher = cmp (Rng.int rng pop) in
  let reads = [ Rng.choose rng sources; Rng.choose rng sources ] in
  let plan = Array.init checks (fun k -> (targets.(k mod Array.length targets), k mod 2 = 0, k mod 4 = 1)) in
  Util.shuffle rng plan;
  let caller =
    B.meth ~name:"onCreate" ~params:1 (fun b ->
        Array.iteri
          (fun k ((s, a), explicit, tainted) ->
            let i = B.new_intent b in
            if explicit then B.set_class_name b i (svc s) else B.set_action b i (act a);
            let v =
              if tainted then B.source_call b (List.nth reads (k mod 2)) else B.const_str b "x"
            in
            B.put_extra b i ~key:"k" ~value:v;
            B.start_service b i)
          plan)
  in
  let permissions =
    List.sort_uniq compare (List.filter_map Resource.permission reads)
  in
  let apk =
    Apk.make
      ~manifest:
        (Manifest.make ~package:fleet_package ~uses_permissions:permissions
           ~components:
             (Component.make ~name:launcher ~kind:Component.Activity ()
             :: Array.to_list
                  (Array.map
                     (fun (s, a) ->
                       Component.make ~name:(svc s) ~kind:Component.Service
                         ~exported:true
                         ~intent_filters:[ Intent_filter.make ~actions:[ act a ] () ]
                         ())
                     targets))
           ())
      ~classes:
        (B.cls ~name:launcher [ caller ]
        :: Array.to_list (Array.map (fun (s, _) -> callee (svc s)) targets))
  in
  (apk, launcher)
