(* device_icc: the enforcement side (RQ4).

   One process simulates a fleet of devices sharing a seeded policy
   store of the four derived shapes.  Each device repeatedly launches an
   ICC-heavy app whose every launch makes a fixed number of hooked
   startService checks, closed loop; hot Device.swap_policies calls
   alternate the store with a rotated copy between waves.  This is the
   only workload on policy compile/decide and the runtime, and it never
   touches AME or ASE, so analysis-side changes must leave it flat. *)

open Separ
module Rng = Separ_workload.Rng
module Trace = Separ_obs.Trace
module Metrics = Separ_obs.Metrics

let devices = 8
let rules = 1000
let checks = 50  (* hooked startService calls per launch *)
let services = 12  (* population services the app installs *)
let waves_per_swap = 32
let oracle_events = 16  (* sampled PDP decisions checked per wave *)
let batch = 1000  (* calls per timed batch in the micro-measurements *)
let setup_reps = 51

let population = max 4 (rules / 4)

(* A seeded store of [rules] policies in the four derived shapes
   (privilege escalation, launch, hijack, leak): every population
   service is guarded by one rule of each shape, as per-component
   derivation leaves it, in seeded order with seeded parameters.  The
   regular coverage keeps a check's cost alike across seeds.  Like
   Derive's output the rules all prompt; the fleet's user approves every
   prompt, so a hooked launch does the same deliveries as an unhooked
   one, plus the checks. *)
let store rng =
  let pop = population in
  let perms = Array.of_list Permission.all and resources = Array.of_list Resource.all in
  let pick arr = arr.(Rng.int rng (Array.length arr)) in
  let rnd () = Rng.int rng pop in
  let order = Array.init pop Fun.id in
  Util.shuffle rng order;
  List.init rules (fun i ->
      let guarded = Apps.svc order.(i / 4 mod pop) in
      let mk event conditions action =
        Policy.
          {
            p_id = Printf.sprintf "fleet-%d" i;
            p_event = event;
            p_conditions = conditions;
            p_action = action;
            p_reason = "synthesized";
          }
      in
      match i mod 4 with
      | 0 ->
          let perm = pick perms in
          mk Policy.Icc_receive
            [ Policy.Receiver_is guarded; Policy.Sender_lacks_permission perm ]
            Policy.Prompt
      | 1 ->
          mk Policy.Icc_receive
            [ Policy.Receiver_is guarded; Policy.Sender_app_not_installed ]
            Policy.Prompt
      | 2 ->
          let sender = Apps.cmp (rnd ()) in
          let action = Apps.act (rnd ()) in
          let other = Apps.svc (rnd ()) in
          mk Policy.Icc_send
            [
              Policy.Sender_is sender; Policy.Implicit; Policy.Action_is action;
              Policy.Receiver_not_in [ guarded; other ];
            ]
            Policy.Prompt
      | _ ->
          let resource = pick resources in
          mk Policy.Icc_receive
            [ Policy.Extras_include resource; Policy.Receiver_is guarded ]
            Policy.Prompt)

(* A random ICC event over the same population, for the PDP oracle. *)
let event rng =
  let pop = population in
  let receiver = Apps.svc (Rng.int rng pop) in
  let sender = Apps.cmp (Rng.int rng pop) in
  let explicit = Rng.bool rng 0.5 in
  let action = if Rng.bool rng 0.25 then Some (Apps.act (Rng.int rng pop)) else None in
  let extras =
    if Rng.bool rng 0.25 then
      [ Intent.{ key = "k"; value = "v"; taint = [ Rng.choose rng Resource.all ] } ]
    else []
  in
  let drop = Rng.int rng 7 in
  let kind = if Rng.bool rng 0.5 then Policy.Icc_receive else Policy.Icc_send in
  let installed = Rng.bool rng 0.5 in
  Policy.
    {
      ev_kind = kind;
      ev_sender_component = sender;
      ev_sender_app = "app." ^ sender;
      ev_sender_installed_at_analysis = installed;
      ev_sender_permissions = List.filteri (fun i _ -> (i + drop) mod 3 <> 0) Permission.all;
      ev_intent =
        Intent.make ?target:(if explicit then Some receiver else None) ?action ~extras ();
      ev_receiver_component = receiver;
      ev_receiver_app = "app." ^ receiver;
    }

let decision_key = function
  | Policy.Allowed -> "allow"
  | Policy.Prompted p -> "prompt:" ^ p.Policy.p_id
  | Policy.Denied p -> "deny:" ^ p.Policy.p_id

type fleet = {
  apps : (Apk.t * string) array;
      (** each device's own seeded variant of the app, with its launcher:
          a run averages over several apps, not one draw *)
  stores : Policy.t list array;  (** the store and its rotation *)
  compiled : Compile.t array;
  devices : Device.t array;
  variant : int array;  (** which store each device runs now *)
  reference : Effect.t list array array;
      (** by store and device: a launch's effects under the uncompiled
          reference PDP *)
}

(* Even devices count the app as analyzed, odd ones do not. *)
let analyzed d = if d mod 2 = 0 then [ Apps.fleet_package ] else []

let device ~apk ~store ~analyzed ~mode =
  let dev = Device.create () in
  Device.install dev apk;
  Device.set_policies dev store analyzed;
  Device.set_pdp_mode dev mode;
  Device.set_consent dev (fun _ _ -> true);
  Device.set_enforcement dev true;
  dev

let launch f d dev =
  Device.start_component dev ~pkg:Apps.fleet_package ~component:(snd f.apps.(d))

(* The run's inputs: the store, its rotation, and each device's app. *)
type inputs = { in_stores : Policy.t list array; in_apps : (Apk.t * string) array }

let inputs ~seed =
  let store = store (Rng.create ((seed * 31) + 17)) in
  let rotated = match store with [] -> [] | p :: rest -> rest @ [ p ] in
  {
    in_stores = [| store; rotated |];
    in_apps =
      Array.init devices (fun d ->
          Apps.fleet_app ~seed:((seed * 101) + d) ~pop:population ~services ~checks);
  }

(* Set-up, only calls into the program: compile both stores and bring
   up the fleet's devices. *)
let fleet { in_stores = stores; in_apps = apps } =
  {
    apps;
    stores;
    compiled = Array.map Compile.compile stores;
    devices =
      Array.init devices (fun d ->
          device ~apk:(fst apps.(d)) ~store:stores.(0) ~analyzed:(analyzed d) ~mode:Device.Compiled);
    variant = Array.make devices 0;
    reference = [||];
  }

(* The oracle's expectations, outside the set-up timing: each device's
   launch effects under the uncompiled reference PDP, per store. *)
let with_reference f =
  let reference =
    Array.map
      (fun store ->
        Array.init devices (fun d ->
            let dev =
              device ~apk:(fst f.apps.(d)) ~store ~analyzed:(analyzed d) ~mode:Device.Reference
            in
            launch f d dev;
            Device.effects dev))
      f.stores
  in
  { f with reference }

type tally = {
  mutable attempted : int;
  mutable failed : int;
  launch_ms : Util.Samples.t;
  swap_us : Util.Samples.t;
  mutable checks : int;
}

let fail t fmt =
  t.failed <- t.failed + 1;
  Util.info fmt

(* One wave: every device launches once (timed, its effects checked
   against the reference outside the timing), then every
   [waves_per_swap] waves every device hot-swaps to the other store.
   Each wave also samples PDP decisions: compiled against reference. *)
let wave f t rng ~wave_no =
  Array.iteri
    (fun d dev ->
      t.attempted <- t.attempted + 1;
      let t0 = Util.now_ns () in
      match
        Trace.with_span "bench.op" (fun () ->
            Trace.with_span "bench.launch" (fun () -> launch f d dev))
      with
      | () ->
          Util.Samples.add t.launch_ms (Util.ns_since t0 *. 1e-6);
          t.checks <- t.checks + checks;
          if Device.effects dev <> f.reference.(f.variant.(d)).(d) then
            fail t "oracle: device %d launch effects differ from the reference PDP" d;
          Device.clear_effects dev
      | exception e -> fail t "launch raised %s" (Printexc.to_string e))
    f.devices;
  if (wave_no + 1) mod waves_per_swap = 0 then
    Array.iteri
      (fun d dev ->
        t.attempted <- t.attempted + 1;
        let next = 1 - f.variant.(d) in
        let t0 = Util.now_ns () in
        Trace.with_span "bench.swap" (fun () -> Device.swap_policies dev f.stores.(next));
        Util.Samples.add t.swap_us (Util.ns_since t0 *. 1e-3);
        f.variant.(d) <- next)
      f.devices;
  for _ = 1 to oracle_events do
    t.attempted <- t.attempted + 1;
    let ev = event rng in
    let v = Rng.int rng 2 in
    if
      decision_key (Compile.decide_full f.compiled.(v) ev)
      <> decision_key (Policy.decide_both f.stores.(v) ev)
    then fail t "oracle: compiled PDP disagrees with the reference decision"
  done

let tally () =
  {
    attempted = 0;
    failed = 0;
    (* room for every launch of a long run, so that the buffer does not
       grow, and peak_heap_mb does not step, with the host's speed *)
    launch_ms = Util.Samples.create ~capacity:(1 lsl 18) ();
    swap_us = Util.Samples.create ();
    checks = 0;
  }

let oracle_rng seed = Rng.create ((seed * 53) + 5)

(* Per-call cost (ns) of [f] over one batch of [batch] calls. *)
let batch_ns ~batch f =
  let t0 = Util.now_ns () in
  for k = 0 to batch - 1 do
    f k
  done;
  Util.ns_since t0 /. float_of_int batch

(* Launch-time self check: every app's launch makes exactly [checks]
   hooked checks. *)
let hook_count f =
  Metrics.reset ();
  Metrics.enable ();
  let ok =
    Array.for_all Fun.id
      (Array.mapi
         (fun d (apk, _) ->
           let before = Metrics.counter_value (Metrics.counter "runtime.hook_checks") in
           launch f d (device ~apk ~store:f.stores.(0) ~analyzed:(analyzed d) ~mode:Device.Compiled);
           Metrics.counter_value (Metrics.counter "runtime.hook_checks") - before = checks)
         f.apps)
  in
  Metrics.disable ();
  Metrics.reset ();
  ok

let run ~seed ~seconds ~trace =
  let inputs = inputs ~seed in
  let f, setup_s = Util.setup_timed ~trace ~reps:setup_reps (fun () -> fleet inputs) in
  let f = with_reference f in
  let hooked_ok = hook_count f in
  if not hooked_ok then Util.info "oracle: a launch did not make %d hooked checks" checks;
  let until = Util.now_s () +. seconds in
  if not trace then begin
    let t = tally () and rng = oracle_rng seed in
    let w = ref 0 in
    (* a wave takes a few ms, so one probe between waves *)
    let sp = Util.Speed.create ~probes:1 in
    while !w = 0 || Util.now_s () < until do
      let n0 = Util.Samples.count t.launch_ms in
      wave f t rng ~wave_no:!w;
      Util.Samples.scale_from t.launch_ms n0 (Util.Speed.around sp);
      Util.sample_heap ();
      incr w
    done;
    let peak = Util.peak_heap_mb () in
    let p50 = Util.Samples.median t.launch_ms and p90 = Util.Samples.percentile 0.90 t.launch_ms in
    let busy_s = Util.Samples.sum t.launch_ms /. 1000.0 in
    Util.info
      "%d waves x %d devices: launch p50 %.4f ms p90 %.4f ms (n=%d), %s; swap %s; %s" !w
      devices p50 p90 (Util.Samples.count t.launch_ms)
      (Util.p99_note ~unit_:"ms" t.launch_ms)
      (Util.p99_note ~unit_:"us" t.swap_us)
      (Util.Speed.note sp);
    {
      Util.attempted = t.attempted + 1;
      failed = (t.failed + if hooked_ok then 0 else 1);
      metrics =
        [
          ("setup_s", setup_s, "s");
          ("latency_ms_p50", p50, "ms");
          ("latency_ms_p90", p90, "ms");
          ("throughput_per_s", Util.ratio (float_of_int t.checks) busy_s, "1/s");
          ("peak_heap_mb", peak, "MB");
        ];
    }
  end
  else begin
    (* Paired: every wave runs on an untraced fleet and, traced, on an
       identical twin, so drift over the run reaches both sides alike. *)
    let twin = with_reference (fleet inputs) in
    let plain = tally () and traced = tally () in
    let rng = oracle_rng seed and rng' = oracle_rng seed in
    let attrib = Attrib.create () in
    let w = ref 0 in
    while Util.now_s () < until do
      Attrib.paired attrib !w
        ~plain:(fun () -> wave f plain rng ~wave_no:!w)
        ~traced:(fun () -> wave twin traced rng' ~wave_no:!w);
      incr w
    done;
    let busy t = Util.Samples.sum t.launch_ms +. (Util.Samples.sum t.swap_us /. 1000.0) in
    let overhead = 100.0 *. Util.ratio (busy traced -. busy plain) (busy plain) in
    (* sub-microsecond timing, in batches on the monotonic clock *)
    let rng = Rng.create ((seed * 59) + 7) in
    let events = Array.init batch (fun _ -> event rng) in
    let batches = 21 in
    let decide_ns =
      Util.median
        (List.init batches (fun _ ->
             batch_ns ~batch (fun k ->
                 ignore (Sys.opaque_identity (Compile.decide_full f.compiled.(0) events.(k))))))
    in
    (* hooked and unhooked launches of the same app, in alternating
       batches so that drift reaches both alike *)
    let unhooked = Device.create () in
    Device.install unhooked (fst f.apps.(0));
    let hooked = f.devices.(0) in
    let launch_us dev =
      batch_ns ~batch:(max 1 (batch / 100)) (fun _ ->
          launch f 0 dev;
          Device.clear_effects dev)
      /. 1000.0
    in
    let pairs = List.init batches (fun _ -> (launch_us hooked, launch_us unhooked)) in
    let hooked_us = Util.median (List.map fst pairs)
    and unhooked_us = Util.median (List.map snd pairs) in
    Util.info "traced %d waves: coverage %.1f%%, tracing overhead %.1f%%" !w
      (Attrib.coverage_pct attrib) overhead;
    let ops = Util.Samples.count traced.launch_ms in
    {
      Util.attempted = plain.attempted + traced.attempted + 1;
      failed = (plain.failed + traced.failed + if hooked_ok then 0 else 1);
      metrics =
        Attrib.metrics attrib ~ops
          ~measured:
            [
              ("policy.decide_ns", decide_ns);
              ("runtime.launch_unhooked_us", unhooked_us);
              ("runtime.hook_overhead_pct", 100.0 *. Util.ratio (hooked_us -. unhooked_us) unhooked_us);
              ("runtime.swap_us_p99", Util.Samples.percentile 0.99 plain.swap_us);
              ("trace.overhead_pct", overhead);
            ];
    }
  end
