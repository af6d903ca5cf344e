(* store_stream: the app-store daemon under an open-loop event stream.

   A Serve daemon at [jobs] workers, with a fresh cache directory per
   run, ingests a seeded store (that ingest is the set-up).  Events then
   arrive at a fixed offered rate whatever the daemon's progress, and
   each verdict is timed from when its event was due, so a stall also
   charges the events queued behind it.  A saturated phase follows and
   measures capacity.  The event mix is updates (same package, another
   seeded build), new uploads, byte-identical re-uploads (the cache-hit
   path) and removes.  The store mixes Generator apps, which talk only
   to themselves, with partner apps on a shared Zipf vocabulary, so many
   tiny relog problems are built per second and multi-bundle events fan
   out over the worker pool. *)

open Separ
module Generator = Separ_workload.Generator
module Rng = Separ_workload.Rng
module Trace = Separ_obs.Trace
module Metrics = Separ_obs.Metrics

let jobs = Util.nproc

(* The store: a few Generator apps, which talk only to themselves, and
   mostly partner apps on a shared vocabulary of [actions] actions whose
   popularity is Zipf([zipf_s]).  A steeper skew puts so many senders
   on the top action that its listener's scope bundle alone decides the
   tail latency.  [spare_apps] packages start absent, for new uploads;
   removes stop [2 * spare_apps] below a full store, so the store's size
   stays in that band. *)
let gen_apps = 16
let partner_apps = 48
let spare_apps = 6
let actions = 96
let zipf_s = 0.5

(* Open loop at [offered_eps] for [open_share] of the run, then
   saturation for the rest. *)
let offered_eps = 12.0
let open_share = 0.8
let setup_reps = 5

(* Event kinds and their shares, in events per round of 20.  No public
   measurement of an app store's event mix was found; the shares are
   assumptions, so the latency of each kind is also reported on its
   own. *)
let kinds = [| "update"; "upload"; "reupload"; "remove" |]
let mix = [| 10; 3; 4; 3 |]

(* Build number [v] of package [i]: Generator apps for the first
   [gen_apps] packages (one profile each, so the package name survives
   a rebuild), partner apps after them.  Every build is a fresh seed, so
   an update always brings new bytes and the cache hit ratio stays put
   over a run.

   A partner's sends are stratified, not drawn: the seed deals the
   partners a permutation [slot] of evenly spaced Zipf quantiles, and
   each rebuild steps a partner's quantile by the golden ratio.  Drawn
   independently at zipf_s 0.8, the most popular action's sender count
   was binomial (about 8 +- 3), and the cost of its listener's scope
   bundle, which grows faster than its size, made the tail latency
   differ by 2x between seeds.  Stratified, every store has about the
   same number of senders per action; seeds differ in who sends where.
   Likewise three builds in ten send a second intent, by slot and build
   number; drawn, the store's count of second intents varied by about a
   fifth between seeds. *)
let build ~cdf ~slot ~seed i v =
  if i < gen_apps then
    let profile =
      {
        Generator.store = Printf.sprintf "g%03d" i;
        count = 1;
        size_lo = 40;
        size_hi = 160;
        rate_hijack = 0.2;
        rate_launch = 0.2;
        rate_privesc = 0.1;
        rate_leak = 0.2;
      }
    in
    match Generator.generate ~seed:((seed * 1_000_003) + (i * 7_919) + v) ~profiles:[ profile ] () with
    | [ g ] -> g.Generator.apk
    | _ -> assert false
  else
    let idx = i - gen_apps in
    let base = (float_of_int slot.(idx) +. 0.5) /. float_of_int partner_apps in
    Apps.partner ~cdf ~seed ~idx ~listens:(idx * actions / partner_apps)
      ~quantile:(Float.rem (base +. (0.618034 *. float_of_int v)) 1.0)
      ~sends:(if ((3 * slot.(idx)) + v) mod 10 < 3 then 2 else 1)
      ~version:v

(* The event source: which packages are in the store and at which
   build.  Deterministic in the seed and independent of the daemon. *)
type source = {
  rng : Rng.t;
  make : int -> int -> Apk.t;
  present : bool array;
  builds : int array;  (** builds made so far, per package *)
  current : Apk.t array;  (** the build each package last uploaded *)
  mutable size : int;
  mutable kind_deck : int list;  (** kinds left in this round *)
  mutable present_deck : int list;  (** packages not yet drawn present this round *)
  mutable absent_deck : int list;  (** packages not yet drawn absent this round *)
}

let source ~seed =
  let n = gen_apps + partner_apps in
  let rng = Rng.create ((seed * 7) + 3) in
  let order = Array.init n Fun.id in
  Util.shuffle rng order;
  let present = Array.make n true in
  for k = 0 to min spare_apps n - 1 do
    present.(order.(k)) <- false
  done;
  let slot = Array.init partner_apps Fun.id in
  Util.shuffle rng slot;
  let make = build ~cdf:(Apps.zipf_cdf ~n:actions ~s:zipf_s) ~slot ~seed in
  {
    rng;
    make;
    present;
    builds = Array.make n 1;
    current = Array.init n (fun i -> make i 0);
    size = n - min spare_apps n;
    kind_deck = [];
    present_deck = [];
    absent_deck = [];
  }

(* Draws are dealt from shuffled decks, not drawn independently: every
   20 events hold the kinds in exactly their shares, and every package
   is drawn once per round of draws, so that seeds do not differ in the
   share of cheap re-uploads and removes, or in how often the store's
   costliest scope bundles are updated. *)
let deal rng xs =
  let a = Array.of_list xs in
  Util.shuffle rng a;
  Array.to_list a

let next_kind src =
  if src.kind_deck = [] then
    src.kind_deck <-
      deal src.rng (List.concat (List.mapi (fun k n -> List.init n (fun _ -> k)) (Array.to_list mix)));
  match src.kind_deck with
  | k :: rest ->
      src.kind_deck <- rest;
      k
  | [] -> assert false

(* The next package of the deck that is (or is not) in the store. *)
let pick src ~present =
  let deck () = if present then src.present_deck else src.absent_deck in
  let set d = if present then src.present_deck <- d else src.absent_deck <- d in
  let take () =
    match List.find_opt (fun i -> src.present.(i) = present) (deck ()) with
    | Some i ->
        set (List.filter (( <> ) i) (deck ()));
        Some i
    | None -> None
  in
  match take () with
  | Some i -> Some i
  | None ->
      set (deal src.rng (List.init (Array.length src.present) Fun.id));
      take ()

let rebuild src i =
  src.current.(i) <- src.make i src.builds.(i);
  src.builds.(i) <- src.builds.(i) + 1;
  Serve.Upload src.current.(i)

(* The next event and its kind (an index into [kinds]). *)
let next src =
  let some_present () = Option.get (pick src ~present:true) in
  match next_kind src with
  | 1 when src.size < Array.length src.present ->
      (* a new upload of an absent package *)
      let i = Option.get (pick src ~present:false) in
      src.present.(i) <- true;
      src.size <- src.size + 1;
      (1, rebuild src i)
  | 3 when src.size > Array.length src.present - (2 * spare_apps) ->
      let i = some_present () in
      src.present.(i) <- false;
      src.size <- src.size - 1;
      (3, Serve.Remove (Apk.package src.current.(i)))
  | 2 -> (2, Serve.Upload src.current.(some_present ())) (* byte-identical re-upload *)
  | _ -> (0, rebuild src (some_present ())) (* an update: same package, new build *)

type daemon = { serve : Serve.t; cache : Cache.t; src : source }

(* Set-up, only calls into the program: a fresh cache directory and a
   daemon ingesting the initial store [src], one upload event per app.
   The store's apps are built before, outside the timing. *)
let bootstrap src ~name =
  let dir = Util.scratch_dir name in
  let cache = Cache.open_ ~dir () in
  let serve = Serve.create ~jobs ~cache () in
  Array.iteri
    (fun i present -> if present then Serve.submit serve (Serve.Upload src.current.(i)))
    src.present;
  ignore (Serve.drain serve);
  { serve; cache; src }

let process serve ev =
  Serve.submit serve ev;
  match Serve.drain serve with
  | [ v ] -> v
  | vs -> failwith (Printf.sprintf "expected one verdict, got %d" (List.length vs))

(* Histogram buckets of candidates (scope bundles analyzed) per event;
   the last bucket holds every count from [top] up. *)
let top = 8

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable verdicts : int;
  mutable analyzed : int;  (** scope bundles dispatched *)
  mutable store : int;  (** summed store size at each verdict *)
  mutable clauses : int;  (** CNF clauses of the reports the events produced *)
  candidates : int array;  (** events by candidates analyzed *)
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    verdicts = 0;
    analyzed = 0;
    store = 0;
    clauses = 0;
    candidates = Array.make (top + 1) 0;
  }

(* Run one event, with [due] the time it was due; returns the verdict
   latency in ms (None if it raised). *)
let step tally d ev ~due =
  tally.attempted <- tally.attempted + 1;
  match Trace.with_span "bench.op" (fun () -> process d.serve ev) with
  | v ->
      let ms = (Util.now_s () -. due) *. 1000.0 in
      tally.verdicts <- tally.verdicts + 1;
      tally.analyzed <- tally.analyzed + v.Serve.vd_analyzed;
      tally.store <- tally.store + v.Serve.vd_store_size;
      let b = min top v.Serve.vd_analyzed in
      tally.candidates.(b) <- tally.candidates.(b) + 1;
      List.iter
        (fun pkg ->
          Option.iter
            (fun r -> tally.clauses <- tally.clauses + r.Ase.r_clauses)
            (Serve.report d.serve pkg))
        v.Serve.vd_candidates;
      Some ms
  | exception e ->
      tally.failed <- tally.failed + 1;
      Util.info "event raised %s" (Printexc.to_string e);
      None

(* The shape of the ICC the stream exercised: events by candidates
   analyzed, and the store's apps by scope-bundle size at the end. *)
let shape_info t d =
  let hist counts =
    String.concat " "
      (List.filter_map Fun.id
         (List.init (top + 1) (fun k ->
              if counts.(k) = 0 then None
              else Some (Printf.sprintf "%d%s:%d" k (if k = top then "+" else "") counts.(k)))))
  in
  let scopes = Array.make (top + 1) 0 in
  List.iter
    (fun pkg ->
      let k = min top (List.length (Serve.scope d.serve pkg)) in
      scopes.(k) <- scopes.(k) + 1)
    (Serve.packages d.serve);
  Util.info "candidates/event: mean %.2f, histogram %s; scope-bundle apps: %s"
    (Util.ratio (float_of_int t.analyzed) (float_of_int t.verdicts))
    (hist t.candidates) (hist scopes)

(* Oracle, outside any timing: the stream's stripped reports must equal
   a brute-force full repair's, and the hot-updated footprint index
   must equal a rebuild. *)
let oracle tally d =
  let stripped () =
    List.map
      (fun (pkg, r) ->
        (pkg, Separ_report.Report.to_string ~report:(Ase.strip_performance r) ~policies:[] ()))
      (Serve.reports d.serve)
  in
  tally.attempted <- tally.attempted + 1;
  let ok =
    try
      let before = stripped () in
      ignore (Serve.full_repair d.serve);
      Footprint.equal (Serve.index d.serve) (Serve.rebuilt_index d.serve) && stripped () = before
    with e ->
      Util.info "oracle raised %s" (Printexc.to_string e);
      false
  in
  if not ok then begin
    tally.failed <- tally.failed + 1;
    Util.info "oracle: stream reports differ from full repair (or index from rebuild)"
  end

let run ~seed ~seconds ~trace =
  let src = source ~seed in
  let reps = ref 0 in
  let d, setup_s =
    Util.setup_timed ~trace ~reps:setup_reps (fun () ->
        incr reps;
        bootstrap src ~name:(Printf.sprintf "cache-%d" !reps))
  in
  let t = tally () in
  Util.sample_heap ();
  if not trace then begin
    (* open loop at the offered rate *)
    let n_open = int_of_float (Float.ceil (offered_eps *. open_share *. seconds)) in
    let t0 = Util.now_s () +. 0.01 in
    let lat = Util.Samples.create () and lag = Util.Samples.create () in
    let by_kind = Array.map (fun _ -> Util.Samples.create ()) kinds in
    let sp = Util.Speed.create ~probes:3 in
    for i = 0 to n_open - 1 do
      let kind, ev = next d.src in
      let due = t0 +. (float_of_int i /. offered_eps) in
      let wait = due -. Util.now_s () in
      if wait > 0.0 then Unix.sleepf wait;
      Util.Samples.add lag ((Util.now_s () -. due) *. 1000.0);
      let verdict = step t d ev ~due in
      (* probe in the idle time after the event, never when the daemon
         runs behind *)
      let next_due = t0 +. (float_of_int (i + 1) /. offered_eps) in
      let scale = Util.Speed.around ~probe:(next_due -. Util.now_s () > 0.005) sp in
      Option.iter
        (fun ms ->
          let ms = ms *. scale in
          Util.Samples.add lat ms;
          Util.Samples.add by_kind.(kind) ms)
        verdict;
      Util.sample_heap ()
    done;
    (* saturated: capacity, over the rest of the run and at least 100
       events, from the events' scaled busy time *)
    let busy_ms = ref 0.0 in
    let sat = ref 0 in
    while !sat < 100 || Util.now_s () < t0 +. seconds do
      let ev = snd (next d.src) in
      let ms = step t d ev ~due:(Util.now_s ()) in
      let scale = Util.Speed.around sp in
      Option.iter (fun ms -> busy_ms := !busy_ms +. (ms *. scale)) ms;
      Util.sample_heap ();
      incr sat
    done;
    let max_eps = Util.ratio (float_of_int !sat) (!busy_ms /. 1000.0) in
    let peak = Util.peak_heap_mb () in
    let n = Util.Samples.count lat in
    let p50 = Util.Samples.median lat and p90 = Util.Samples.percentile 0.90 lat in
    Util.info "jobs %d (nproc %d); %s" jobs Util.nproc (Util.Speed.note sp);
    Util.info
      "open loop: %d events at %.1f/s, verdict p50 %.3f ms p90 %.3f ms (n=%d), %s; generator \
       late p50 %.3f ms, max %.3f ms"
      n_open offered_eps p50 p90 n (Util.p99_note ~unit_:"ms" lat) (Util.Samples.median lag)
      (Util.Samples.max lag);
    Array.iteri
      (fun k s ->
        if Util.Samples.count s > 0 then
          Util.info "  %-8s verdict p50 %.3f ms p90 %.3f ms (n=%d)" kinds.(k)
            (Util.Samples.median s) (Util.Samples.percentile 0.90 s) (Util.Samples.count s))
      by_kind;
    Util.info "saturated: %.1f events/s (n=%d); store %d apps" max_eps !sat
      (Serve.store_size d.serve);
    shape_info t d;
    oracle t d;
    {
      Util.attempted = t.attempted;
      failed = t.failed;
      metrics =
        [
          ("setup_s", setup_s, "s");
          ("latency_ms_p50", p50, "ms");
          ("latency_ms_p90", p90, "ms");
          ("throughput_per_s", max_eps, "1/s");
          ("peak_heap_mb", peak, "MB");
        ];
    }
  end
  else begin
    (* Paired closed loop: every event goes to the untraced daemon and,
       traced, to an identical twin, so drift over the run (heap growth,
       cache fill) reaches both sides alike. *)
    let twin = bootstrap (source ~seed) ~name:"cache-twin" in
    let tt = tally () in
    let attrib = Attrib.create () in
    let ame_stat key = Option.value ~default:0 (List.assoc_opt key (Cache.stats twin.cache)) in
    let ame_hits0 = ame_stat "ame.hits" and ame_misses0 = ame_stat "ame.misses" in
    Metrics.reset ();
    let plain_ms = ref 0.0 and traced_ms = ref 0.0 and n = ref 0 in
    let until = Util.now_s () +. seconds in
    while Util.now_s () < until do
      let _, ev = next d.src and _, ev' = next twin.src in
      Attrib.paired attrib !n
        ~plain:(fun () ->
          Option.iter (fun ms -> plain_ms := !plain_ms +. ms) (step t d ev ~due:(Util.now_s ())))
        ~traced:(fun () ->
          Option.iter
            (fun ms -> traced_ms := !traced_ms +. ms)
            (step tt twin ev' ~due:(Util.now_s ())));
      incr n
    done;
    let n = !n in
    let counter name = float_of_int (Metrics.counter_value (Metrics.counter name)) in
    let per_op v = v /. float_of_int (max 1 n) in
    let ame_hits = float_of_int (ame_stat "ame.hits" - ame_hits0)
    and ame_misses = float_of_int (ame_stat "ame.misses" - ame_misses0) in
    let ase_hits = counter "cache.hits" -. ame_hits
    and ase_misses = counter "cache.misses" -. ame_misses in
    let hc_hits = counter "relog.hashcons_hits" and hc_misses = counter "relog.hashcons_misses" in
    let overhead = 100.0 *. Util.ratio (!traced_ms -. !plain_ms) !plain_ms in
    Util.info "traced %d events: coverage %.1f%%, tracing overhead %.1f%%" n
      (Attrib.coverage_pct attrib) overhead;
    shape_info tt twin;
    oracle tt twin;
    {
      Util.attempted = t.attempted + tt.attempted;
      failed = t.failed + tt.failed;
      metrics =
        Attrib.metrics attrib ~ops:n
          ~measured:
            [
              ("relog.gates", per_op hc_misses);
              ("relog.clauses", per_op (float_of_int tt.clauses));
              ("relog.hc_hit_ratio", Util.ratio hc_hits (hc_hits +. hc_misses));
              ("sat.conflicts", per_op (counter "sat.conflicts"));
              ("serve.candidates_mean", per_op (float_of_int tt.analyzed));
              ("serve.skip_ratio", 1.0 -. Util.ratio (float_of_int tt.analyzed) (float_of_int tt.store));
              ("cache.ame_hit_ratio", Util.ratio ame_hits (ame_hits +. ame_misses));
              ("cache.ase_hit_ratio", Util.ratio ase_hits (ase_hits +. ase_misses));
              ("exec.forks", per_op (counter "pool.forks"));
              ("trace.overhead_pct", overhead);
            ];
    }
  end
