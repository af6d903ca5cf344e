(* The persistent content-addressed cache: store roundtrips, corruption
   tolerance (truncated / garbled / wrong-digest entries degrade to
   recorded misses), LRU eviction under a size cap, per-signature ASE
   fingerprints (stability and delta selectivity), warm re-analysis,
   and the worker wire protocol. *)

open Separ
module Store = Separ_cache.Store
module Pool = Separ_exec.Pool
module Metrics = Separ_obs.Metrics
module B = Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* A fresh, empty directory for one store. *)
let fresh_dir () =
  let d = Filename.temp_file "separ_cache" "" in
  Sys.remove d;
  d

(* The file name [Store] gives the entry for [key]. *)
let entry_name key = Digest.to_hex (Digest.string key)

(* Where [Store] keeps the entry for [key] — tests corrupt it in place. *)
let entry_file dir key = Filename.concat dir (entry_name key)

let slurp path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let spit path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let store t ~key v = check "entry published" true (Store.store t ~key v)

(* --- store basics --------------------------------------------------------- *)

let test_roundtrip () =
  let t = Store.open_ ~dir:(fresh_dir ()) () in
  check "initial lookup misses" true
    ((Store.find t ~key:"k" : int list option) = None);
  store t ~key:"k" [ 1; 2; 3 ];
  (match (Store.find t ~key:"k" : int list option) with
  | Some v -> Alcotest.(check (list int)) "value roundtrips" [ 1; 2; 3 ] v
  | None -> Alcotest.fail "expected a hit after store");
  let stats = Store.stats t in
  check_int "one hit" 1 (List.assoc "hits" stats);
  check_int "one miss" 1 (List.assoc "misses" stats);
  check_int "one store" 1 (List.assoc "stores" stats);
  check_int "no corruption" 0 (List.assoc "corrupt" stats);
  check_int "one entry on disk" 1 (Store.entry_count t);
  (* distinct keys do not collide *)
  store t ~key:"other" [ 4 ];
  check "distinct keys keep distinct values" true
    ((Store.find t ~key:"k" : int list option) = Some [ 1; 2; 3 ]
    && (Store.find t ~key:"other" : int list option) = Some [ 4 ]);
  check "unknown key misses" true
    ((Store.find t ~key:"unknown" : int list option) = None);
  check_int "two entries on disk" 2 (Store.entry_count t)

(* --- corruption tolerance ------------------------------------------------- *)

(* Corrupt one stored entry with [mangle], then check the lookup degrades
   to a recorded miss, the bad file is deleted, and a re-store recovers. *)
let corruption_case mangle =
  let dir = fresh_dir () in
  let t = Store.open_ ~dir () in
  store t ~key:"sig" "verdict";
  let path = entry_file dir "sig" in
  spit path (mangle (slurp path));
  check "corrupt entry is a miss" true
    ((Store.find t ~key:"sig" : string option) = None);
  let stats = Store.stats t in
  check_int "corruption recorded" 1 (List.assoc "corrupt" stats);
  check_int "miss recorded" 1 (List.assoc "misses" stats);
  check "bad entry deleted" false (Sys.file_exists path);
  (* the caller recomputes and rewrites; the store recovers in place *)
  store t ~key:"sig" "verdict";
  check "re-store recovers" true
    ((Store.find t ~key:"sig" : string option) = Some "verdict")

let test_truncated_entry () =
  (* cut mid-payload and mid-header *)
  corruption_case (fun raw -> String.sub raw 0 (String.length raw - 3));
  corruption_case (fun raw -> String.sub raw 0 4)

let test_wrong_digest_entry () =
  corruption_case (fun raw ->
      let b = Bytes.of_string raw in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xff));
      Bytes.to_string b)

let test_wrong_magic_entry () =
  corruption_case (fun raw -> "NOTMAGIC" ^ String.sub raw 8 (String.length raw - 8))

(* A writer that died mid-write leaves a temporary file behind; it must
   not shadow the real entry, be served, or break later writes. *)
let test_stale_tmp_file_harmless () =
  let dir = fresh_dir () in
  let t = Store.open_ ~dir () in
  store t ~key:"k" "good";
  spit (Filename.concat dir (".tmp." ^ entry_name "k" ^ ".999")) "partial garbage";
  check "real entry still served" true
    ((Store.find t ~key:"k" : string option) = Some "good");
  check_int "tmp file not counted as an entry" 1 (Store.entry_count t);
  (* overwriting the same key (the concurrent-writer race resolved by
     atomic rename) just replaces the entry *)
  store t ~key:"k" "newer";
  check "last writer wins" true
    ((Store.find t ~key:"k" : string option) = Some "newer")

(* A process killed mid-publish leaks its ".tmp.<entry>.<pid>" file;
   nothing ever read or removed it.  Opening the store must sweep tmp
   files whose owning pid is dead, while leaving a live process's
   in-flight publish alone — and a file whose name the store never
   makes is not its own to delete. *)
let test_orphan_tmp_swept_on_open () =
  let dir = fresh_dir () in
  (* a first handle writes an entry, then "dies" mid-publish *)
  let t0 = Store.open_ ~dir () in
  store t0 ~key:"k" "good";
  (* a genuinely dead pid: fork a child that exits immediately *)
  let dead_pid =
    match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
        ignore (Unix.waitpid [] pid);
        pid
  in
  let tmp key owner =
    Filename.concat dir (Printf.sprintf ".tmp.%s.%s" (entry_name key) owner)
  in
  let orphan_dead = tmp "dead" (string_of_int dead_pid) in
  let foreign = tmp "junk" "notapid" in
  let live = tmp "inflight" (string_of_int (Unix.getpid ())) in
  List.iter (fun p -> spit p "half-written payload") [ orphan_dead; foreign; live ];
  let t = Store.open_ ~dir () in
  check "dead-pid orphan swept" false (Sys.file_exists orphan_dead);
  check "foreign tmp-like name kept" true (Sys.file_exists foreign);
  check "live in-flight publish kept" true (Sys.file_exists live);
  check_int "one sweep recorded" 1 (List.assoc "tmp_swept" (Store.stats t));
  (* the surviving tmp files never leak into the entry accounting *)
  check_int "tmp file not an entry" 1 (Store.entry_count t);
  let entry = entry_file dir "k" in
  check "size counts entries only" true
    (Store.size_bytes t = String.length (slurp entry));
  check "real entry still served" true
    ((Store.find t ~key:"k" : string option) = Some "good");
  List.iter Sys.remove [ foreign; live ]

(* The read-through LRU touch must bump only the access time: the old
   [utimes path 0. 0.] call hit the both-zero special case that resets
   atime AND mtime to now, clobbering the publish time on every hit
   (and making mtime-based external inspection lie). *)
let test_hit_preserves_mtime () =
  let dir = fresh_dir () in
  let t = Store.open_ ~dir () in
  store t ~key:"k" "payload";
  let path = entry_file dir "k" in
  (* age the entry: both times well in the past *)
  let past = Unix.gettimeofday () -. 1000.0 in
  Unix.utimes path past past;
  (match (Store.find t ~key:"k" : string option) with
  | Some "payload" -> ()
  | _ -> Alcotest.fail "hit expected");
  let st = Unix.stat path in
  check "mtime preserved across the hit" true
    (abs_float (st.Unix.st_mtime -. past) < 2.0);
  check "atime refreshed by the hit" true
    (st.Unix.st_atime > past +. 500.0);
  (* a second hit keeps mtime pinned too *)
  ignore (Store.find t ~key:"k" : string option);
  let st2 = Unix.stat path in
  check "mtime still preserved" true
    (abs_float (st2.Unix.st_mtime -. past) < 2.0)

(* --- eviction ------------------------------------------------------------- *)

let test_eviction_under_tiny_cap () =
  let cap = 400 in
  let t = Store.open_ ~dir:(fresh_dir ()) ~max_bytes:cap () in
  let big = String.make 200 'x' in
  List.iter (fun k -> store t ~key:k big) [ "a"; "b"; "c" ];
  let stats = Store.stats t in
  check "evictions recorded" true (List.assoc "evictions" stats > 0);
  check "size back under cap" true (Store.size_bytes t <= cap);
  check "some entries evicted" true (Store.entry_count t < 3);
  (* an evicted key degrades to a recorded miss and can be recomputed *)
  let missing =
    List.filter
      (fun k -> (Store.find t ~key:k : string option) = None)
      [ "a"; "b"; "c" ]
  in
  check "an evicted key misses" true (missing <> []);
  check "miss recorded for evicted keys" true
    (List.assoc "misses" (Store.stats t) >= List.length missing);
  store t ~key:(List.hd missing) big;
  check "rewrite keeps the cap" true (Store.size_bytes t <= cap)

(* The store only touches its own files.  Under a cap below one entry's
   size every store evicts at once; a foreign file in the root, a file
   in a subdirectory (say, ase/ or ame/ left by an older layout) and a
   subdirectory named like an entry must all survive opening, storing
   and eviction, and count toward no size. *)
let test_foreign_files_untouched () =
  let dir = fresh_dir () in
  Store.mkdir_p (Filename.concat dir "docs");
  Store.mkdir_p (Filename.concat dir (entry_name "k"));
  let foreign =
    [
      Filename.concat dir "notes.txt";
      Filename.concat dir "docs/notes.txt";
      Filename.concat dir (Filename.concat (entry_name "k") "inner");
    ]
  in
  List.iter (fun p -> spit p (String.make 2000 'n')) foreign;
  let t = Store.open_ ~dir ~max_bytes:16 () in
  check "foreign files count for nothing" true (Store.size_bytes t = 0);
  store t ~key:"a" "a payload larger than the cap";
  store t ~key:"b" "another payload larger than the cap";
  check_int "every store evicted itself" 2
    (List.assoc "evictions" (Store.stats t));
  check "a subdirectory named like an entry is a miss" true
    ((Store.find t ~key:"k" : string option) = None);
  check_int "and not corrupt" 0 (List.assoc "corrupt" (Store.stats t));
  List.iter (fun p -> check (p ^ " survives") true (Sys.file_exists p)) foreign;
  check "size counts no foreign file" true (Store.size_bytes t = 0);
  check_int "no entries left" 0 (Store.entry_count t)

(* --- ASE fingerprints ----------------------------------------------------- *)

(* A one-component app whose two variants differ only in a sensitive
   source-to-sink path (no intents, no filters): the delta is invisible
   to path-blind signatures. *)
let probe_app ~extra_path () =
  let body =
    B.meth ~name:"onStartCommand" ~params:1 (fun b ->
        if extra_path then
          let v = B.get_location b in
          B.write_log b ~payload:v)
  in
  Apk.make
    ~manifest:
      (Manifest.make ~package:"com.cache.probe"
         ~uses_permissions:[ Permission.access_fine_location ]
         ~components:[ Component.make ~name:"Probe" ~kind:Component.Service () ]
         ())
    ~classes:[ B.cls ~name:"Probe" [ body ] ]

let bundle_with ~extra_path () =
  Bundle.of_models
    (List.map Extract.extract
       [ Demo.navigation_app (); Demo.messenger_app (); probe_app ~extra_path () ])

let signature_named name =
  List.find (fun (s : Signatures.t) -> s.Signatures.name = name) (Signatures.all ())

(* Fingerprints must survive re-encoding from scratch: the encoder's
   fresh-variable counter is process-global, so this is what catches a
   non-alpha-invariant rendering. *)
let test_fingerprint_stability () =
  let b1 = bundle_with ~extra_path:false () in
  let b2 = bundle_with ~extra_path:false () in
  List.iter
    (fun (s : Signatures.t) ->
      check (s.Signatures.name ^ " fingerprint stable across re-encoding") true
        (Ase.signature_fingerprint b1 s = Ase.signature_fingerprint b2 s))
    (Signatures.all ())

let test_fingerprint_selectivity () =
  let b0 = bundle_with ~extra_path:false () in
  let b1 = bundle_with ~extra_path:true () in
  let fp name b = Ase.signature_fingerprint b (signature_named name) in
  (* intent_hijack's formula never touches the path relations *)
  check "path-only change invisible to intent_hijack" true
    (fp "intent_hijack" b0 = fp "intent_hijack" b1);
  (* the path-sensitive signatures must see it *)
  List.iter
    (fun name ->
      check (name ^ " sees the new path") false (fp name b0 = fp name b1))
    [ "information_leakage"; "service_launch" ];
  (* different enumeration limits never share verdicts *)
  check "limit is part of the key" false
    (Ase.signature_fingerprint ~limit:1 b0 (signature_named "intent_hijack")
    = Ase.signature_fingerprint ~limit:2 b0 (signature_named "intent_hijack"))

(* --- warm re-analysis ----------------------------------------------------- *)

let stripped report =
  Separ_report.Report.to_string ~report:(Ase.strip_performance report)
    ~policies:[] ()

let test_analyze_warm_rerun () =
  Metrics.enable ();
  Metrics.reset ();
  let t = Store.open_ ~dir:(fresh_dir ()) () in
  let bundle =
    Bundle.of_models
      (List.map Extract.extract [ Demo.navigation_app (); Demo.messenger_app () ])
  in
  let nsigs = List.length (Signatures.all ()) in
  let cold = Ase.analyze ~cache:t bundle in
  check_int "cold run misses every signature" nsigs
    (List.assoc "misses" (Store.stats t));
  check_int "cold run stores every verdict" nsigs
    (List.assoc "stores" (Store.stats t));
  Metrics.reset ();
  let warm = Ase.analyze ~cache:t bundle in
  check_int "warm run hits every signature" nsigs
    (List.assoc "hits" (Store.stats t));
  check_int "warm run runs zero SAT solves" 0
    (Metrics.counter_value (Metrics.counter "sat.solves"));
  check "stripped reports byte-identical cold vs warm" true
    (stripped cold = stripped warm);
  check "cache section reported" true (warm.Ase.r_cache <> []);
  check "cache section stripped from canonical report" true
    ((Ase.strip_performance warm).Ase.r_cache = []);
  Metrics.reset ();
  Metrics.disable ()

(* A cache write that fails must cost nothing but the write: with the
   root replaced by a file after opening, every lookup misses, every
   store is dropped uncounted, and the analysis reports exactly what a
   cacheless run does. *)
let test_failed_writes_keep_verdicts () =
  let dir = fresh_dir () in
  let t = Store.open_ ~dir () in
  Unix.rmdir dir;
  spit dir "not a directory";
  let bundle =
    Bundle.of_models
      (List.map Extract.extract
         [ Demo.navigation_app (); Demo.messenger_app (); Demo.relay_malware () ])
  in
  let report = Ase.analyze ~cache:t bundle in
  check "stripped report = cacheless run" true
    (stripped report = stripped (Ase.analyze bundle));
  check_int "no signature degraded" 0 (List.length report.Ase.r_degraded);
  check_int "nothing counted as stored" 0 (List.assoc "stores" (Store.stats t));
  check_int "every signature missed" (List.length (Signatures.all ()))
    (List.assoc "misses" (Store.stats t));
  Sys.remove dir

(* The cache behaves the same at any pool width: a directory filled at
   one [-j] serves another, and the store handle counts lookups, stores,
   corrupt entries and evictions made in forked workers exactly as an
   inline run counts them.
   The builtin signatures share no key across these two bundles (the
   cold reference asserts it): a key two bundles of one run share is
   hit by the second at -j 1 but may miss in both when they are solved
   concurrently. *)
let test_cache_across_jobs () =
  let signatures = Signatures.builtin in
  Metrics.enable ();
  let demo =
    Bundle.of_models
      (List.map Extract.extract [ Demo.navigation_app (); Demo.messenger_app () ])
  in
  let relay =
    Bundle.of_models
      (List.map Extract.extract
         [ Demo.navigation_app (); Demo.messenger_app (); Demo.relay_malware () ])
  in
  let counter name = Metrics.counter_value (Metrics.counter name) in
  let ase_counts t =
    let stat k = List.assoc k (Store.stats t) in
    (stat "hits", stat "misses", stat "stores")
  in
  (* A cold run at [cold_jobs], then a warm one at [warm_jobs], each
     through a fresh handle on one directory. *)
  let cold_then_warm bundles (cold_jobs, warm_jobs) =
    let dir = fresh_dir () in
    List.map
      (fun jobs ->
        let t = Store.open_ ~dir () in
        Metrics.reset ();
        let reports = Ase.analyze_many ~signatures ~jobs ~cache:t bundles in
        check
          (Printf.sprintf "report cache section = handle counters at -j %d" jobs)
          true
          (List.for_all (fun r -> r.Ase.r_cache = Store.stats t) reports);
        ( jobs,
          List.map stripped reports,
          ase_counts t,
          counter "sat.solves",
          counter "relog.translations" ))
      [ cold_jobs; warm_jobs ]
  in
  List.iter
    (fun bundles ->
      let n = List.length bundles in
      let expected =
        List.map stripped (Ase.analyze_many ~signatures ~jobs:1 bundles)
      in
      let reference = cold_then_warm bundles (1, 1) in
      List.iter
        (fun order ->
          List.iter2
            (fun (jobs, reports, counts, solves, translations)
                 (_, _, ref_counts, _, _) ->
              let what =
                Printf.sprintf "%d bundle(s), %s run at -j %d" n
                  (if solves = 0 then "warm" else "cold") jobs
              in
              check (what ^ ": stripped reports = uncached -j 1") true
                (reports = expected);
              let h, m, st = counts and rh, rm, rst = ref_counts in
              check_int (what ^ ": ASE hits as at -j 1") rh h;
              check_int (what ^ ": ASE misses as at -j 1") rm m;
              check_int (what ^ ": stores as at -j 1") rst st;
              if m = 0 then begin
                check_int (what ^ ": zero SAT solves") 0 solves;
                check_int (what ^ ": zero translations") 0 translations
              end)
            (cold_then_warm bundles order)
            reference)
        [ (1, 2); (2, 1) ];
      (* the reference itself: a cold run misses, a warm run only hits *)
      match reference with
      | [ (_, _, (0, cold_misses, _), _, _); (_, _, (warm_hits, 0, _), 0, 0) ] ->
          check_int "cold -j 1 misses every signature of every bundle"
            (n * List.length signatures)
            cold_misses;
          check_int "warm -j 1 hits them all" cold_misses warm_hits
      | _ -> Alcotest.fail "-j 1 reference: expected a cold miss, warm hit run")
    [ [ demo ]; [ demo; relay ] ];
  (* Corrupt entries and evictions are counted in the worker too: a
     corrupted warm cache reports every entry corrupt, and a 1-byte cap
     evicts, at -j 2 as at -j 1. *)
  let filled = fresh_dir () in
  ignore
    (Ase.analyze_many ~signatures ~jobs:1
       ~cache:(Store.open_ ~dir:filled ())
       [ demo ]);
  let entries = Sys.readdir filled in
  Array.iter
    (fun name ->
      let path = Filename.concat filled name in
      let b = Bytes.of_string (slurp path) in
      let mid = Bytes.length b / 2 in
      Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xff));
      spit path (Bytes.to_string b))
    entries;
  List.iter
    (fun jobs ->
      let dir = fresh_dir () in
      Store.mkdir_p dir;
      Array.iter
        (fun name ->
          spit (Filename.concat dir name) (slurp (Filename.concat filled name)))
        entries;
      let t = Store.open_ ~dir () in
      ignore (Ase.analyze_many ~signatures ~jobs ~cache:t [ demo ]);
      check_int
        (Printf.sprintf "every corrupted entry counted at -j %d" jobs)
        (Array.length entries)
        (List.assoc "corrupt" (Store.stats t));
      let tiny = Store.open_ ~dir:(fresh_dir ()) ~max_bytes:1 () in
      let reports = Ase.analyze_many ~signatures ~jobs ~cache:tiny [ demo ] in
      check
        (Printf.sprintf "a 1-byte cap evicts at -j %d" jobs)
        true
        (List.assoc "evictions" (Store.stats tiny) > 0);
      check
        (Printf.sprintf "report cache section shows the evictions at -j %d"
           jobs)
        true
        (List.for_all (fun r -> r.Ase.r_cache = Store.stats tiny) reports))
    [ 1; 2 ];
  Metrics.reset ();
  Metrics.disable ()

(* --- worker wire protocol ------------------------------------------------- *)

let test_check_protocol () =
  (match Pool.check_protocol (Pool.protocol_tag ^ "marshalled bytes") with
  | Ok off ->
      check_int "payload starts after the tag"
        (String.length Pool.protocol_tag)
        off
  | Error msg -> Alcotest.fail ("tagged payload rejected: " ^ msg));
  (match Pool.check_protocol "SEP" with
  | Error msg -> check "short payload reported" true (contains ~affix:"truncated" msg)
  | Ok _ -> Alcotest.fail "truncated payload accepted");
  match Pool.check_protocol "SEPARP0\nstale worker bytes" with
  | Error msg ->
      check "version mismatch reported" true (contains ~affix:"mismatch" msg);
      check "observed tag quoted" true (contains ~affix:"SEPARP0" msg)
  | Ok _ -> Alcotest.fail "mismatched tag accepted"

let tests =
  [
    Alcotest.test_case "store roundtrip and stats" `Quick test_roundtrip;
    Alcotest.test_case "truncated entry degrades to miss" `Quick
      test_truncated_entry;
    Alcotest.test_case "wrong-digest entry degrades to miss" `Quick
      test_wrong_digest_entry;
    Alcotest.test_case "wrong-magic entry degrades to miss" `Quick
      test_wrong_magic_entry;
    Alcotest.test_case "stale tmp file is harmless" `Quick
      test_stale_tmp_file_harmless;
    Alcotest.test_case "orphan tmp files swept on open" `Quick
      test_orphan_tmp_swept_on_open;
    Alcotest.test_case "hit preserves mtime, bumps atime" `Quick
      test_hit_preserves_mtime;
    Alcotest.test_case "eviction under a tiny cap" `Quick
      test_eviction_under_tiny_cap;
    Alcotest.test_case "foreign files and subdirectories untouched" `Quick
      test_foreign_files_untouched;
    Alcotest.test_case "signature fingerprints stable" `Quick
      test_fingerprint_stability;
    Alcotest.test_case "signature fingerprints selective" `Quick
      test_fingerprint_selectivity;
    Alcotest.test_case "warm re-analysis: zero solves, identical report" `Quick
      test_analyze_warm_rerun;
    Alcotest.test_case "failed cache writes keep every verdict" `Quick
      test_failed_writes_keep_verdicts;
    Alcotest.test_case "cache across -j: same reports, counts, no solves"
      `Quick test_cache_across_jobs;
    Alcotest.test_case "worker wire protocol validation" `Quick
      test_check_protocol;
  ]
