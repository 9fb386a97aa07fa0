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
module Telemetry = Ft_obs.Telemetry
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

(* --- quarantine ------------------------------------------------------- *)

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

(* A fresh path for a checkpoint log: named like a temporary file, but
   with nothing there yet. *)
let with_checkpoint_path f =
  let path = Filename.temp_file "ft_ck" ".snap" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      List.iter Test_helpers.remove_if_exists [ path; path ^ ".lock" ])
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
    (Sys.file_exists path);
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

(* --- the checkpoint log ------------------------------------------------- *)

module Codec = Ft_engine.Cache_codec

let decode_log path =
  Codec.decode ~pos:(String.length Codec.header) (Test_helpers.read_file path)

let keys entries = List.sort compare (List.map fst entries)

let test_log_reasons_roundtrip () =
  (* Every reason survives a flush and a load exactly: details keep their
     tabs and newlines, and a timeout keeps every bit. *)
  with_checkpoint_path @@ fun path ->
  let reasons =
    [
      ("k1", Quarantine.Build_failed "mod_3");
      ("k2", Quarantine.Crashed "signal 11\tat 0x4f\nin calc2");
      ("k3", Quarantine.Wrong_answer);
      ("k4", Quarantine.Timed_out (Float.succ 123.5));
    ]
  in
  let quarantine = Quarantine.create () in
  List.iter (fun (k, r) -> Quarantine.add quarantine k r) reasons;
  let ck = Checkpoint.create ~path () in
  ignore (Checkpoint.flush ck ~cache:(Cache.create ()) ~quarantine : bool);
  let exact = function
    | Quarantine.Timed_out s -> `Timed_out (Int64.bits_of_float s)
    | r -> `Reason r
  in
  match Checkpoint.load ck with
  | None -> Alcotest.fail "nothing to resume from after flush"
  | Some (_, loaded) ->
      Alcotest.(check bool) "all four reasons round-trip bit-exactly" true
        (List.map (fun (k, r) -> (k, exact r)) (Quarantine.bindings loaded)
        = List.map (fun (k, r) -> (k, exact r)) reasons)

let test_log_grows_by_delta () =
  (* A checkpointed search writes each entry once; a resumed search that
     adds nothing leaves the log untouched, inode and bytes. *)
  with_checkpoint_path @@ fun path ->
  let policy = faulty_policy ~rate:0.2 () in
  let search engine =
    Tuner.run_cfr ~top_x:5
      (Tuner.make_session ~pool_size:30 ~engine ~platform ~program ~input
         ~seed:5150 ())
  in
  let ck = Checkpoint.create ~path ~every:8 () in
  let engine = Engine.create ~jobs:2 ~policy ~checkpoint:ck () in
  let first = search engine in
  Engine.flush_checkpoint engine;
  let d = decode_log path in
  Alcotest.(check bool) "quarantine entries were logged" true
    (Quarantine.length (Engine.quarantine engine) > 0);
  Alcotest.(check bool) "no torn or skipped frame" true
    ((not d.Codec.torn) && d.Codec.skipped = 0);
  Alcotest.(check (list string)) "one frame per summary"
    (keys (Cache.bindings (Engine.cache engine)))
    (keys d.Codec.entries);
  Alcotest.(check (list string)) "one frame per quarantine entry"
    (keys (Quarantine.bindings (Engine.quarantine engine)))
    (keys d.Codec.quarantined);
  let before = Unix.stat path and bytes = Test_helpers.read_file path in
  let cache, quarantine = Option.get (Checkpoint.load ck) in
  let resumed =
    Engine.create ~jobs:2 ~policy ~cache ~quarantine ~checkpoint:ck ()
  in
  let again = search resumed in
  Engine.flush_checkpoint resumed;
  let s = Telemetry.snapshot (Engine.telemetry resumed) in
  Alcotest.(check bool) "the resume measured nothing new" true
    (s.Telemetry.cache_misses = 0 && again = first);
  let after = Unix.stat path in
  Alcotest.(check bool) "same inode, same size" true
    (after.Unix.st_ino = before.Unix.st_ino
    && after.Unix.st_size = before.Unix.st_size);
  Alcotest.(check bool) "same bytes" true (Test_helpers.read_file path = bytes)

let test_trace_records_only_real_saves () =
  (* A save is traced only when a sync changed the log: a cold
     checkpointed search saves, a resume that finds every summary in the
     log and adds nothing (100 % hits) traces no save and leaves the log's
     bytes alone. *)
  with_checkpoint_path @@ fun path ->
  let search engine =
    Tuner.run_cfr ~top_x:5
      (Tuner.make_session ~pool_size:30 ~engine ~platform ~program ~input
         ~seed:6262 ())
  in
  let saves trace =
    List.length
      (List.filter
         (fun (st : Ft_obs.Trace.stamped) ->
           match st.Ft_obs.Trace.event with
           | Ft_obs.Event.Checkpoint_saved _ -> true
           | _ -> false)
         (Ft_obs.Trace.events trace))
  in
  let ck = Checkpoint.create ~path ~every:8 () in
  let cold_trace = Ft_obs.Trace.create ~clock:Ft_obs.Trace.Wall () in
  let cold = Engine.create ~jobs:2 ~checkpoint:ck ~trace:cold_trace () in
  let first = search cold in
  Engine.flush_checkpoint cold;
  Alcotest.(check bool) "a cold checkpointed run traces its saves" true
    (saves cold_trace >= 1);
  let bytes = Test_helpers.read_file path in
  let cache, quarantine = Option.get (Checkpoint.load ck) in
  let trace = Ft_obs.Trace.create ~clock:Ft_obs.Trace.Wall () in
  let resumed =
    Engine.create ~jobs:2 ~cache ~quarantine ~checkpoint:ck ~trace ()
  in
  let again = search resumed in
  Engine.flush_checkpoint resumed;
  let s = Telemetry.snapshot (Engine.telemetry resumed) in
  Alcotest.(check bool) "the resume hit every summary" true
    (s.Telemetry.cache_misses = 0 && s.Telemetry.cache_hits > 0
    && again = first);
  Alcotest.(check int) "no save traced" 0 (saves trace);
  Alcotest.(check bool) "log bytes unchanged" true
    (Test_helpers.read_file path = bytes)

let test_text_era_checkpoint_resumes () =
  (* Checkpoints left by the v1 text and v2 binary writers must resume
     with every entry, and the first sync rewrites them as v3 logs without
     losing or changing one. *)
  List.iter
    (fun fixture ->
      with_checkpoint_path @@ fun path ->
      Test_helpers.write_file path (Test_helpers.read_file fixture);
      let expected = Cache.bindings (Cache.load fixture) in
      let ck = Checkpoint.create ~path () in
      match Checkpoint.load ~warn:(fun ~line:_ ~reason:_ -> ()) ck with
      | None -> Alcotest.fail (fixture ^ ": an old checkpoint must resume")
      | Some (cache, quarantine) ->
          Alcotest.(check int) (fixture ^ ": every entry resumed") 20
            (Cache.length cache);
          Alcotest.(check bool)
            (fixture ^ ": resumed bindings equal the file's")
            true
            (Cache.bindings cache = expected);
          ignore (Checkpoint.flush ck ~cache ~quarantine : bool);
          Alcotest.(check bool) (fixture ^ ": rewritten as a v3 log") true
            (Codec.detect (Test_helpers.read_file path) = `Binary);
          Alcotest.(check bool)
            (fixture ^ ": the log holds the same bindings")
            true
            (Cache.bindings (Cache.load path) = expected))
    [ Test_helpers.v1_cache_fixture; Test_helpers.v2_cache_fixture ]

let test_concurrent_ticks () =
  (* Four domains tick [~every:1] while adding entries, so their syncs
     race: the log must hold every entry once, with no torn or skipped
     frame. *)
  with_checkpoint_path @@ fun path ->
  let ck = Checkpoint.create ~path ~every:1 () in
  let cache = Cache.create () and quarantine = Quarantine.create () in
  let ticker d () =
    for i = 1 to 25 do
      let key = Printf.sprintf "domain-%d-key-%d" d i in
      if i mod 5 = 0 then Quarantine.add quarantine key (Quarantine.Crashed key)
      else
        Cache.add cache key
          {
            Ft_machine.Exec.sum_total_s = float_of_int i;
            sum_nonloop_s = float_of_int d;
            sum_loops = [ ("calc1", 0.5) ];
          };
      ignore (Checkpoint.tick ck ~cache ~quarantine : bool)
    done
  in
  List.iter Domain.join (List.init 4 (fun d -> Domain.spawn (ticker d)));
  let d = decode_log path in
  Alcotest.(check bool) "no torn or skipped frame" true
    ((not d.Codec.torn) && d.Codec.skipped = 0);
  Alcotest.(check (list string)) "every summary, once"
    (keys (Cache.bindings cache)) (keys d.Codec.entries);
  Alcotest.(check (list string)) "every quarantine entry, once"
    (keys (Quarantine.bindings quarantine))
    (keys d.Codec.quarantined)

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
      Alcotest.test_case "preloaded quarantine changes nothing" `Quick
        test_quarantine_preload_changes_nothing;
      Alcotest.test_case "checkpoint round-trip" `Quick
        test_checkpoint_roundtrip;
      Alcotest.test_case "checkpoint resume bit-identical" `Quick
        test_checkpoint_resume_bit_identical;
      Alcotest.test_case "every reason round-trips through the log" `Quick
        test_log_reasons_roundtrip;
      Alcotest.test_case "the log grows by the delta only" `Quick
        test_log_grows_by_delta;
      Alcotest.test_case "only real saves are traced" `Quick
        test_trace_records_only_real_saves;
      Alcotest.test_case "text-era checkpoint resumes as binary" `Quick
        test_text_era_checkpoint_resumes;
      Alcotest.test_case "concurrent ticks log every entry once" `Quick
        test_concurrent_ticks;
      Alcotest.test_case "searches complete under faults" `Quick
        test_searches_complete_under_faults;
      Alcotest.test_case "searches deterministic under faults" `Quick
        test_searches_deterministic_under_faults;
      Alcotest.test_case "winner never quarantined" `Quick
        test_winner_is_never_quarantined;
    ] )
