(* Tests for the fault model and the fault-tolerant search layer: schedule
   purity, retry/quarantine/timeout policy, robust repeat aggregation,
   checkpoint/resume, and the acceptance property that every search
   completes under injected faults with a bit-identical result at any
   worker count. *)

open Ft_prog
module Fault = Ft_fault.Fault
module Engine = Ft_engine.Engine
module Cache = Ft_engine.Cache
module Quarantine = Ft_engine.Quarantine
module Checkpoint = Ft_engine.Checkpoint
module Telemetry = Ft_engine.Telemetry
module Stats = Ft_util.Stats
module Rng = Ft_util.Rng
module Cv = Ft_flags.Cv
module Result = Funcytuner.Result
module Tuner = Funcytuner.Tuner

let program = Option.get (Ft_suite.Suite.find "363.swim")
let platform = Platform.Broadwell
let toolchain = Ft_machine.Toolchain.make platform
let input = Ft_suite.Suite.tuning_input platform program

let faulty_policy ?(rate = 0.1) ?(fault_seed = 7) () =
  {
    Engine.default_policy with
    Engine.faults = Some (Fault.make ~seed:fault_seed ~rate ());
  }

let sample_jobs ?(n = 60) ?(seed = 11) () =
  let rng = Rng.create seed in
  Array.init n (fun i ->
      {
        Engine.build =
          Engine.Uniform { cv = Ft_flags.Space.sample rng; instrumented = false };
        rng = Rng.of_label rng (string_of_int i);
      })

(* --- the fault model ------------------------------------------------- *)

let test_schedule_is_pure () =
  let f = Fault.make ~seed:3 ~rate:0.5 () in
  let keys = List.init 200 (Printf.sprintf "key-%d") in
  let draw k = List.init 4 (fun attempt -> Fault.run_fault f ~key:k ~attempt) in
  let forward = List.map draw keys in
  let backward = List.rev_map draw (List.rev keys) in
  Alcotest.(check bool) "order of queries never matters" true
    (forward = backward);
  Alcotest.(check bool) "re-querying gives the same schedule" true
    (forward = List.map draw keys)

let test_all_fault_classes_appear () =
  let f = Fault.make ~seed:5 ~rate:1.0 () in
  let crashes = ref 0 and wrongs = ref 0 and hangs = ref 0 and oks = ref 0 in
  for i = 0 to 1999 do
    match Fault.run_fault f ~key:(Printf.sprintf "k%d" i) ~attempt:0 with
    | Fault.Run_ok -> incr oks
    | Fault.Crash _ -> incr crashes
    | Fault.Wrong_answer -> incr wrongs
    | Fault.Hang { factor; _ } ->
        Alcotest.(check bool) "hang factors are heavy-tailed (>= 50)" true
          (factor >= 50.0);
        incr hangs
  done;
  Alcotest.(check bool) "every run-fault class appears" true
    (!crashes > 0 && !wrongs > 0 && !hangs > 0 && !oks > 0);
  let quiet = Fault.make ~seed:5 ~rate:0.0 () in
  for i = 0 to 499 do
    Alcotest.(check bool) "rate 0 injects nothing" true
      (Fault.run_fault quiet ~key:(Printf.sprintf "k%d" i) ~attempt:0
      = Fault.Run_ok)
  done

let test_ice_persistent_and_hostile () =
  let f = Fault.make ~seed:9 ~rate:0.8 () in
  let rng = Rng.create 1 in
  let cvs = List.init 300 (fun _ -> Ft_flags.Space.sample rng) in
  let ice cv = Fault.ice f ~program:"p" ~module_name:"m" cv in
  Alcotest.(check bool) "ICE verdicts are stable" true
    (List.map ice cvs = List.map ice cvs);
  Alcotest.(check bool) "some CV ICEs at a high rate" true
    (List.exists ice cvs);
  List.iter
    (fun cv ->
      Alcotest.(check bool) "hostility is a multiplier >= 1" true
        (Fault.hostility cv >= 1.0))
    cvs

let test_corrupt_signature_differs () =
  List.iter
    (fun (key, expected) ->
      Alcotest.(check bool) "corrupted checksum never validates" false
        (Fault.corrupt_signature ~key expected = expected))
    (List.init 100 (fun i -> (Printf.sprintf "key-%d" i, i * 7919)))

let test_outlier_deterministic () =
  let f = Fault.make ~seed:2 ~rate:0.5 () in
  let draws () =
    List.init 300 (fun i ->
        Fault.outlier f ~key:(Printf.sprintf "k%d" (i / 5)) ~repeat:(i mod 5))
  in
  let first = draws () in
  Alcotest.(check bool) "outlier draws are reproducible" true (first = draws ());
  Alcotest.(check bool) "some repeats are outliers, most are not" true
    (List.exists Option.is_some first && List.exists Option.is_none first);
  List.iter
    (function
      | Some factor ->
          Alcotest.(check bool) "outlier factors inflate (>= 1.5)" true
            (factor >= 1.5)
      | None -> ())
    first

(* --- robust aggregation ----------------------------------------------- *)

let test_robust_representative () =
  Alcotest.(check int) "planted outlier is rejected" 0
    (Stats.robust_representative [| 1.02; 1.0; 0.98; 50.0 |]);
  Alcotest.(check int) "singleton picks the only sample" 0
    (Stats.robust_representative [| 42.0 |]);
  Alcotest.(check int) "identical samples pick the first" 0
    (Stats.robust_representative [| 2.0; 2.0; 2.0 |]);
  match Stats.robust_representative [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty input accepted"

(* --- engine recovery policy ------------------------------------------- *)

let outcomes ~jobs ~policy js =
  let engine = Engine.create ~jobs ~policy () in
  (engine, Engine.try_measure_batch engine ~toolchain ~program ~input js)

let test_try_batch_partial_and_deterministic () =
  let policy = faulty_policy ~rate:0.3 () in
  let _, seq = outcomes ~jobs:1 ~policy (sample_jobs ()) in
  let engine4, par = outcomes ~jobs:4 ~policy (sample_jobs ()) in
  Alcotest.(check bool) "outcome array bit-identical at jobs=1 and 4" true
    (seq = par);
  let ok = ref 0 and faulted = ref 0 in
  Array.iter
    (function Engine.Ok _ -> incr ok | _ -> incr faulted)
    par;
  Alcotest.(check bool) "mixed outcomes: good jobs survive bad siblings" true
    (!ok > 0 && !faulted > 0);
  let s = Telemetry.snapshot (Engine.telemetry engine4) in
  (* Counters record every occurrence, so successfully-retried transient
     faults push the tally above the number of terminal failures. *)
  Alcotest.(check bool) "every terminal failure is counted" true
    (Telemetry.faults s >= !faulted);
  Alcotest.(check bool) "terminal faults are quarantined" true
    (Quarantine.length (Engine.quarantine engine4) > 0)

let test_quarantine_hit_replays_outcome () =
  let policy = faulty_policy ~rate:0.3 () in
  let js = sample_jobs () in
  let engine, first = outcomes ~jobs:2 ~policy js in
  (* Same keys again on the same engine: quarantined keys short-circuit
     and must replay exactly the recorded outcome. *)
  let again = Engine.try_measure_batch engine ~toolchain ~program ~input js in
  Array.iter2
    (fun a b ->
      match (a, b) with
      | Engine.Ok _, Engine.Ok _ -> ()
      | a, b ->
          Alcotest.(check string) "replayed failure identical"
            (Engine.outcome_to_string a) (Engine.outcome_to_string b))
    first again;
  let s = Telemetry.snapshot (Engine.telemetry engine) in
  Alcotest.(check bool) "short-circuits are counted" true
    (s.Telemetry.quarantine_hits > 0)

let hang_only ~transient_fraction =
  {
    Fault.seed = 5;
    compile_fail_rate = 0.0;
    crash_rate = 0.0;
    wrong_answer_rate = 0.0;
    hang_rate = 0.95;
    outlier_rate = 0.0;
    transient_fraction;
  }

let test_timeouts_trip_and_quarantine () =
  (* Persistent hangs against a tight budget: factors are >= 50, so every
     hang trips a 60 s timeout on a ~9 s benchmark and retries never help. *)
  let policy =
    {
      (Engine.default_policy) with
      Engine.faults = Some (hang_only ~transient_fraction:0.0);
      timeout_s = 60.0;
    }
  in
  let engine, out = outcomes ~jobs:3 ~policy (sample_jobs ~n:40 ()) in
  let timeouts =
    Array.to_list out
    |> List.filter_map (function
         | Engine.Timed_out s -> Some s
         | _ -> None)
  in
  Alcotest.(check bool) "hangs become Timed_out" true (timeouts <> []);
  List.iter
    (fun s ->
      Alcotest.(check bool) "kill time exceeds the budget" true (s > 60.0))
    timeouts;
  let s = Telemetry.snapshot (Engine.telemetry engine) in
  Alcotest.(check bool) "timeouts counted and quarantined" true
    (s.Telemetry.timeouts > 0 && s.Telemetry.quarantined > 0)

let test_transient_faults_are_retried_away () =
  (* All-transient hangs clear within 1-2 retries, so with the default
     retry budget every job must come back Ok — at the cost of recorded
     retries and simulated backoff, never a quarantine entry. *)
  let policy =
    {
      (Engine.default_policy) with
      Engine.faults = Some (hang_only ~transient_fraction:1.0);
      timeout_s = 60.0;
    }
  in
  let engine, out = outcomes ~jobs:3 ~policy (sample_jobs ~n:40 ()) in
  Array.iter
    (fun o ->
      match o with
      | Engine.Ok _ -> ()
      | o -> Alcotest.fail ("transient fault survived: " ^ Engine.outcome_to_string o))
    out;
  let s = Telemetry.snapshot (Engine.telemetry engine) in
  Alcotest.(check bool) "retries happened" true (s.Telemetry.retries > 0);
  Alcotest.(check bool) "backoff was simulated, not slept" true
    (List.mem_assoc "backoff" s.Telemetry.timers);
  Alcotest.(check int) "nothing quarantined" 0
    (Quarantine.length (Engine.quarantine engine))

let test_repeats_deterministic () =
  let policy = { (faulty_policy ~rate:0.2 ()) with Engine.repeats = 5 } in
  let _, a = outcomes ~jobs:1 ~policy (sample_jobs ~n:30 ()) in
  let _, b = outcomes ~jobs:4 ~policy (sample_jobs ~n:30 ()) in
  Alcotest.(check bool) "repeated measurements bit-identical at any jobs"
    true (a = b)

(* --- quarantine persistence ------------------------------------------- *)

let test_quarantine_roundtrip () =
  let q = Quarantine.create () in
  Quarantine.add q "k1" (Quarantine.Build_failed "mod_3");
  Quarantine.add q "k2" (Quarantine.Crashed "persistent crash");
  Quarantine.add q "k3" Quarantine.Wrong_answer;
  Quarantine.add q "k4" (Quarantine.Timed_out 123.5);
  let path = Filename.temp_file "ft_quarantine" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Quarantine.save q ~path;
      let reloaded = Quarantine.load path in
      Alcotest.(check bool) "all four reasons round-trip" true
        (Quarantine.bindings q = Quarantine.bindings reloaded))

let test_quarantine_rejects_garbage () =
  let path = Filename.temp_file "ft_quarantine" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a quarantine file\n";
      close_out oc;
      match Quarantine.load path with
      | exception Quarantine.Corrupt { line; _ } ->
          Alcotest.(check int) "rejected at the header" 1 line
      | _ -> Alcotest.fail "garbage accepted")

let test_quarantine_preload_changes_nothing () =
  (* Handing a search the quarantine of a previous identical run removes
     work (hits) but must not change the result. *)
  let policy = faulty_policy ~rate:0.25 () in
  let run ?quarantine () =
    let engine = Engine.create ~jobs:2 ~policy ?quarantine () in
    let session =
      Tuner.make_session ~pool_size:30 ~engine ~platform ~program ~input
        ~seed:99 ()
    in
    (Tuner.run_cfr ~top_x:5 session, engine)
  in
  let cold, engine = run () in
  let preloaded = Quarantine.create () in
  List.iter
    (fun (k, r) -> Quarantine.add preloaded k r)
    (Quarantine.bindings (Engine.quarantine engine));
  let warm, warm_engine = run ~quarantine:preloaded () in
  Alcotest.(check bool) "result bit-identical with preloaded quarantine"
    true
    (cold.Result.speedup = warm.Result.speedup
    && cold.Result.configuration = warm.Result.configuration);
  let s = Telemetry.snapshot (Engine.telemetry warm_engine) in
  Alcotest.(check bool) "quarantine hits avoided re-trying" true
    (s.Telemetry.quarantine_hits > 0)

(* --- checkpoint/resume ------------------------------------------------ *)

let with_checkpoint_path f =
  let path = Filename.temp_file "ft_ck" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path ^ ".quarantine"; path ^ ".commit" ])
    (fun () -> f path)

let test_checkpoint_roundtrip () =
  with_checkpoint_path @@ fun path ->
  let ck = Checkpoint.create ~path ~every:8 () in
  let engine =
    Engine.create ~jobs:2 ~policy:(faulty_policy ~rate:0.3 ()) ~checkpoint:ck ()
  in
  ignore (Engine.try_measure_batch engine ~toolchain ~program ~input (sample_jobs ()));
  Engine.flush_checkpoint engine;
  match Checkpoint.load ck with
  | None -> Alcotest.fail "nothing to resume from after flush"
  | Some (cache, quarantine) ->
      Alcotest.(check bool) "cache snapshot bit-exact" true
        (Cache.bindings cache = Cache.bindings (Engine.cache engine));
      Alcotest.(check bool) "quarantine snapshot bit-exact" true
        (Quarantine.bindings quarantine
        = Quarantine.bindings (Engine.quarantine engine))

let test_checkpoint_resume_bit_identical () =
  (* Simulated kill: run once with periodic snapshots and *without* a final
     flush, as if the process died between ticks; then resume from whatever
     made it to disk and check the search fast-forwards to the same
     answer with strictly less work. *)
  with_checkpoint_path @@ fun path ->
  let policy = faulty_policy ~rate:0.2 () in
  let search engine =
    let session =
      Tuner.make_session ~pool_size:30 ~engine ~platform ~program ~input
        ~seed:5150 ()
    in
    Tuner.run_cfr ~top_x:5 session
  in
  let ck = Checkpoint.create ~path ~every:8 () in
  let first = search (Engine.create ~jobs:2 ~policy ~checkpoint:ck ()) in
  Alcotest.(check bool) "periodic snapshots hit the disk" true
    (Checkpoint.exists ck);
  let cache, quarantine = Option.get (Checkpoint.load ck) in
  let resumed_engine = Engine.create ~jobs:2 ~policy ~cache ~quarantine () in
  let resumed = search resumed_engine in
  Alcotest.(check bool) "resumed result bit-identical" true
    (first.Result.speedup = resumed.Result.speedup
    && first.Result.trace = resumed.Result.trace
    && first.Result.configuration = resumed.Result.configuration);
  let s = Telemetry.snapshot (Engine.telemetry resumed_engine) in
  Alcotest.(check bool) "resume fast-forwards through snapshotted work" true
    (s.Telemetry.cache_hits > 0)

(* --- the checkpoint commit protocol ----------------------------------- *)

exception Simulated_crash

let test_commit_write_order () =
  with_checkpoint_path @@ fun path ->
  let stages = ref [] in
  let ck =
    Checkpoint.create ~path ~on_write:(fun s -> stages := s :: !stages) ()
  in
  let cache = Cache.create () and quarantine = Quarantine.create () in
  Checkpoint.flush ck ~cache ~quarantine;
  Checkpoint.flush ck ~cache ~quarantine;
  Alcotest.(check (list string)) "quarantine, then cache, then commit"
    [ "quarantine"; "cache"; "commit"; "quarantine"; "cache"; "commit" ]
    (List.rev !stages)

let test_torn_save_is_caught () =
  (* Deliberately reintroduce the pre-protocol bug: crash between the
     quarantine and cache writes, pairing a newer quarantine with an older
     cache on disk, and check that load reports the tear (and that the
     safe tear direction holds: the survivor carries the NEWER
     quarantine). *)
  with_checkpoint_path @@ fun path ->
  let crash = ref false in
  let on_write stage =
    if !crash && stage = "quarantine" then raise Simulated_crash
  in
  let ck = Checkpoint.create ~path ~on_write () in
  let cache = Cache.create () and quarantine = Quarantine.create () in
  Quarantine.add quarantine "key-a" Quarantine.Wrong_answer;
  Checkpoint.flush ck ~cache ~quarantine;
  Quarantine.add quarantine "key-b" (Quarantine.Crashed "sig11");
  crash := true;
  (try Checkpoint.flush ck ~cache ~quarantine
   with Simulated_crash -> ());
  let warnings = ref [] in
  let warn ~line:_ ~reason = warnings := reason :: !warnings in
  (match Checkpoint.load ~warn ck with
  | None -> Alcotest.fail "a torn checkpoint must still load"
  | Some (_, q) ->
      Alcotest.(check int) "survivor carries the newer quarantine" 2
        (Quarantine.length q));
  Alcotest.(check bool) "the tear is reported" true
    (List.exists
       (fun r -> Test_helpers.contains r "torn checkpoint: quarantine")
       !warnings)

let test_missing_commit_record_warns () =
  with_checkpoint_path @@ fun path ->
  let ck = Checkpoint.create ~path () in
  Checkpoint.flush ck ~cache:(Cache.create ())
    ~quarantine:(Quarantine.create ());
  Sys.remove (Checkpoint.commit_path ck);
  let warnings = ref [] in
  let warn ~line:_ ~reason = warnings := reason :: !warnings in
  (match Checkpoint.load ~warn ck with
  | None -> Alcotest.fail "a pre-protocol snapshot must still load"
  | Some _ -> ());
  Alcotest.(check bool) "pre-protocol snapshot is flagged" true
    (List.exists
       (fun r -> Test_helpers.contains r "no commit record")
       !warnings)

let test_text_era_checkpoint_resumes () =
  (* A checkpoint left by the v1 text writer (no commit record either)
     must resume with every entry, and the next flush rewrites it in the
     binary format without losing or changing one. *)
  with_checkpoint_path @@ fun path ->
  Test_helpers.write_file path
    (Test_helpers.read_file Test_helpers.v1_cache_fixture);
  let expected = Cache.bindings (Cache.load Test_helpers.v1_cache_fixture) in
  let ck = Checkpoint.create ~path () in
  match Checkpoint.load ~warn:(fun ~line:_ ~reason:_ -> ()) ck with
  | None -> Alcotest.fail "a text-era checkpoint must resume"
  | Some (cache, quarantine) ->
      Alcotest.(check int) "every v1 entry resumed" 20 (Cache.length cache);
      Alcotest.(check bool) "resumed bindings equal the v1 file's" true
        (Cache.bindings cache = expected);
      Checkpoint.flush ck ~cache ~quarantine;
      let rewritten = Test_helpers.read_file path in
      Alcotest.(check bool) "rewritten as binary" true
        (Ft_engine.Cache_codec.detect rewritten = `Binary);
      Alcotest.(check bool) "binary snapshot holds the same bindings" true
        (Cache.bindings (Cache.load path) = expected)

let test_concurrent_tick_saves_serialize () =
  (* Four domains racing [tick ~every:1]: every save transaction must run
     to completion before the next begins — the stage log is a sequence of
     complete quarantine/cache/commit triples, never interleaved. *)
  with_checkpoint_path @@ fun path ->
  let stages = ref [] in
  let lock = Mutex.create () in
  let on_write s = Mutex.protect lock (fun () -> stages := s :: !stages) in
  let ck = Checkpoint.create ~path ~every:1 ~on_write () in
  let cache = Cache.create () and quarantine = Quarantine.create () in
  let ticker () =
    for _ = 1 to 25 do
      ignore (Checkpoint.tick ck ~cache ~quarantine : bool)
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn ticker) in
  List.iter Domain.join domains;
  let rec well_formed = function
    | [] -> true
    | "quarantine" :: "cache" :: "commit" :: rest -> well_formed rest
    | _ -> false
  in
  let log = List.rev !stages in
  Alcotest.(check bool) "save transactions never interleave" true
    (well_formed log);
  Alcotest.(check int) "every due tick saved" (3 * 100) (List.length log)

(* --- the searches under fire ------------------------------------------ *)

let faulty_session ?(seed = 1234) ?(jobs = 2) () =
  let engine = Engine.create ~jobs ~policy:(faulty_policy ()) () in
  Tuner.make_session ~pool_size:25 ~engine ~platform ~program ~input ~seed ()

let check_valid what (r : Result.t) =
  Alcotest.(check bool) (what ^ " returns a finite positive speedup") true
    (Float.is_finite r.Result.speedup && r.Result.speedup > 0.0)

let test_searches_complete_under_faults () =
  let session = faulty_session () in
  let ctx = session.Tuner.ctx in
  check_valid "random" (Funcytuner.Random_search.run ctx);
  check_valid "fr" (Funcytuner.Fr.run ctx session.Tuner.outline);
  check_valid "cfr" (Tuner.run_cfr ~top_x:5 session);
  let collection = Lazy.force session.Tuner.collection in
  check_valid "greedy" (Funcytuner.Greedy.run ctx collection).Funcytuner.Greedy.realized;
  check_valid "adaptive" (Funcytuner.Adaptive.run ~top_x:5 ctx collection);
  check_valid "opentuner"
    (Ft_opentuner.Ensemble.run ctx).Ft_opentuner.Ensemble.result;
  let ce =
    Ft_baselines.Ce.run
      ?faults:(Engine.policy (Funcytuner.Context.engine ctx)).Engine.faults
      ~toolchain ~program ~input ~rng:(Rng.create 4) ()
  in
  Alcotest.(check bool) "ce completes with a finite speedup" true
    (Float.is_finite ce.Ft_baselines.Ce.speedup
    && ce.Ft_baselines.Ce.speedup > 0.0)

let test_searches_deterministic_under_faults () =
  (* The acceptance property of the fault layer: an armed fault model does
     not break deterministic parallelism. *)
  let report jobs =
    Tuner.run_all ~top_x:5 (faulty_session ~jobs ())
  in
  let seq = report 1 and par = report 4 in
  Alcotest.(check bool) "random bit-identical" true
    (seq.Tuner.random = par.Tuner.random);
  Alcotest.(check bool) "fr bit-identical" true (seq.Tuner.fr = par.Tuner.fr);
  Alcotest.(check bool) "cfr bit-identical" true (seq.Tuner.cfr = par.Tuner.cfr);
  Alcotest.(check bool) "greedy bit-identical" true
    (seq.Tuner.greedy = par.Tuner.greedy)

let test_winner_is_never_quarantined () =
  let session = faulty_session ~seed:777 () in
  let engine = Funcytuner.Context.engine session.Tuner.ctx in
  let check_winner (r : Result.t) =
    let build =
      match r.Result.configuration with
      | Result.Whole_program cv ->
          Engine.Uniform { cv; instrumented = false }
      | Result.Per_module assignment ->
          Engine.Assigned { assignment; instrumented = false }
    in
    let key = Engine.key ~toolchain ~program ~input build in
    Alcotest.(check bool) "winning configuration is fault-free" true
      (Quarantine.find (Engine.quarantine engine) key = None)
  in
  check_winner (Funcytuner.Random_search.run session.Tuner.ctx);
  check_winner (Funcytuner.Fr.run session.Tuner.ctx session.Tuner.outline);
  check_winner (Tuner.run_cfr ~top_x:5 session)

let suite =
  ( "fault",
    [
      Alcotest.test_case "fault schedule is pure" `Quick test_schedule_is_pure;
      Alcotest.test_case "all fault classes appear" `Quick
        test_all_fault_classes_appear;
      Alcotest.test_case "ICEs persistent, hostility >= 1" `Quick
        test_ice_persistent_and_hostile;
      Alcotest.test_case "corrupted signature never validates" `Quick
        test_corrupt_signature_differs;
      Alcotest.test_case "outlier draws deterministic" `Quick
        test_outlier_deterministic;
      Alcotest.test_case "robust representative" `Quick
        test_robust_representative;
      Alcotest.test_case "partial batch, deterministic outcomes" `Quick
        test_try_batch_partial_and_deterministic;
      Alcotest.test_case "quarantine hit replays outcome" `Quick
        test_quarantine_hit_replays_outcome;
      Alcotest.test_case "timeouts trip and quarantine" `Quick
        test_timeouts_trip_and_quarantine;
      Alcotest.test_case "transient faults retried away" `Quick
        test_transient_faults_are_retried_away;
      Alcotest.test_case "repeats deterministic at any jobs" `Quick
        test_repeats_deterministic;
      Alcotest.test_case "quarantine save/load round-trip" `Quick
        test_quarantine_roundtrip;
      Alcotest.test_case "quarantine rejects garbage" `Quick
        test_quarantine_rejects_garbage;
      Alcotest.test_case "preloaded quarantine changes nothing" `Quick
        test_quarantine_preload_changes_nothing;
      Alcotest.test_case "checkpoint round-trip" `Quick
        test_checkpoint_roundtrip;
      Alcotest.test_case "checkpoint resume bit-identical" `Quick
        test_checkpoint_resume_bit_identical;
      Alcotest.test_case "commit protocol write order" `Quick
        test_commit_write_order;
      Alcotest.test_case "torn save caught by commit record" `Quick
        test_torn_save_is_caught;
      Alcotest.test_case "missing commit record warns" `Quick
        test_missing_commit_record_warns;
      Alcotest.test_case "text-era checkpoint resumes as binary" `Quick
        test_text_era_checkpoint_resumes;
      Alcotest.test_case "concurrent tick saves serialize" `Quick
        test_concurrent_tick_saves_serialize;
      Alcotest.test_case "searches complete under faults" `Quick
        test_searches_complete_under_faults;
      Alcotest.test_case "searches deterministic under faults" `Quick
        test_searches_deterministic_under_faults;
      Alcotest.test_case "winner never quarantined" `Quick
        test_winner_is_never_quarantined;
    ] )
