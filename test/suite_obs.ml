(* Tests for ft_obs: trace determinism across worker counts, exporter
   round-trips, report rendering, the one counting rule, and — the
   load-bearing ones — that a wall-clock trace re-counts to the live
   telemetry and projects to the logical trace of the same run. *)

module Trace = Ft_obs.Trace
module Event = Ft_obs.Event
module Export = Ft_obs.Export
module Report = Ft_obs.Report
module Json = Ft_obs.Json
module Engine = Ft_engine.Engine
module Telemetry = Ft_obs.Telemetry
module Tuner = Funcytuner.Tuner

let swim = Option.get (Ft_suite.Suite.find "swim")
let platform = Ft_prog.Platform.Broadwell

(* One full tune (profile -> collect -> prune -> search) on a small pool:
   every phase and event kind the trace schema knows about gets
   exercised. *)
let run_cfr ?policy ?trace ~jobs ~pool () =
  let engine = Engine.create ~jobs ?policy ?trace () in
  let session =
    Tuner.make_session ~pool_size:pool ~engine ~platform ~program:swim
      ~input:(Ft_suite.Suite.tuning_input platform swim)
      ~seed:42 ()
  in
  (Tuner.run_cfr session, engine)

let faulty_policy =
  {
    Engine.default_policy with
    Engine.faults = Some (Ft_fault.Fault.make ~seed:1 ~rate:0.4 ());
    timeout_s = 60.0;
    repeats = 3;
  }

let event_line e =
  Json.to_string
    (Json.Obj (("ev", Json.String (Event.name e)) :: Event.fields e))

let jsonl ?policy ~clock ~jobs ~pool () =
  let trace = Trace.create ~clock () in
  let result, _ = run_cfr ?policy ~trace ~jobs ~pool () in
  (result, String.concat "\n" (Export.jsonl_lines trace) ^ "\n", trace)

(* --- determinism across worker counts --------------------------------- *)

let test_results_jobs_independent () =
  (* The Makefile smoke check, in-process: the whole tune result is
     bit-identical at --jobs 1 and --jobs 4. *)
  let r1, _ = run_cfr ~jobs:1 ~pool:24 () in
  let r4, _ = run_cfr ~jobs:4 ~pool:24 () in
  Alcotest.(check bool) "results identical across jobs" true (r1 = r4)

let test_logical_trace_jobs_independent () =
  let r1, bytes1, _ = jsonl ~clock:Trace.Logical ~jobs:1 ~pool:24 () in
  let r4, bytes4, _ = jsonl ~clock:Trace.Logical ~jobs:4 ~pool:24 () in
  Alcotest.(check bool) "results identical" true (r1 = r4);
  Alcotest.(check string) "logical trace bytes identical" bytes1 bytes4

let test_trace_off_invariance () =
  (* Attaching a trace must not change what the search computes. *)
  let bare, _ = run_cfr ~jobs:1 ~pool:24 () in
  let traced, _ =
    run_cfr ~trace:(Trace.create ~clock:Trace.Wall ()) ~jobs:1 ~pool:24 ()
  in
  Alcotest.(check bool) "tracing is observational only" true (bare = traced)

(* --- the counting rule ------------------------------------------------- *)

let test_counting_rule () =
  let zero = Telemetry.snapshot (Telemetry.create ()) in
  let key = "k" in
  let fault kind = Event.Fault_injected { key; fault = kind } in
  List.iter
    (fun (event, expected) ->
      let t = Telemetry.create () in
      Telemetry.count t event;
      Alcotest.(check bool) (event_line event) true
        (Telemetry.snapshot t = expected))
    [
      (Event.Cache_hit { key }, { zero with cache_hits = 1 });
      (Event.Cache_miss { key }, { zero with cache_misses = 1 });
      (Event.Build_done { key }, { zero with builds = 1 });
      (Event.Run_done { key }, { zero with runs = 1 });
      ( Event.Retry { key; attempt = 0; backoff_s = 0.1 },
        { zero with retries = 1 } );
      (fault "ice", { zero with build_failures = 1 });
      (fault "crash", { zero with crashes = 1 });
      (fault "wrong-answer", { zero with wrong_answers = 1 });
      (fault "timeout", { zero with timeouts = 1 });
      ( Event.Worker_crashed { detail = "signal 9" },
        { zero with worker_crashes = 1 } );
      (Event.Outlier { key }, { zero with outliers = 1 });
      ( Event.Quarantine_added { key; reason = "crashed" },
        { zero with quarantined = 1 } );
      ( Event.Quarantine_hit { key; reason = "crashed" },
        { zero with quarantine_hits = 1 } );
      ( Event.Timer { name = "build"; seconds = 1.5 },
        { zero with timers = [ ("build", 1.5) ] } );
      (* Nobody counts these. *)
      (Event.Job_started { key }, zero);
      (Event.Job_finished { key; outcome = "ok"; elapsed_s = Some 1.0 }, zero);
      (Event.Cache_query { key }, zero);
      (Event.Checkpoint_saved { path = "ck" }, zero);
      (Event.Phase_begin { phase = Event.Collect }, zero);
      (Event.Rung_opened { rung = 0; arms = 4; pulls = 8 }, zero);
      ( Event.Request_received { id = "r"; tenant = "t"; fingerprint = "f" },
        zero );
    ]

(* --- counter derivability ---------------------------------------------- *)

(* The live counters and a wall trace's re-count use the same rule, so
   they agree exactly when every counted event reached the trace. *)
let check_counters ~msg (s : Telemetry.snapshot) trace =
  let d =
    Telemetry.snapshot
      (Telemetry.of_events
         (List.map (fun st -> st.Trace.event) (Trace.events trace)))
  in
  Alcotest.(check bool) (msg ^ ": counters") true
    ({ s with timers = [] } = { d with timers = [] });
  Alcotest.(check (list (pair string (float 1e-9))))
    (msg ^ ": timers") s.timers d.timers

let test_counters_derivable_fault_free () =
  let trace = Trace.create ~clock:Trace.Wall () in
  let _, engine = run_cfr ~trace ~jobs:1 ~pool:24 () in
  check_counters ~msg:"fault-free"
    (Telemetry.snapshot (Engine.telemetry engine))
    trace

let test_counters_derivable_faulty () =
  (* A fault rate high enough to exercise every counter: ICEs, crashes,
     wrong answers, timeouts, retries, outliers, quarantine adds/hits. *)
  let trace = Trace.create ~clock:Trace.Wall () in
  let _, engine =
    run_cfr ~policy:faulty_policy ~trace ~jobs:1 ~pool:40 ()
  in
  let s = Telemetry.snapshot (Engine.telemetry engine) in
  Alcotest.(check bool) "faults actually injected" true
    (Telemetry.faults s > 0);
  check_counters ~msg:"faulty" s trace

(* --- clock projection -------------------------------------------------- *)

let test_logical_is_projection_of_wall () =
  (* Every emission path obeys one clock rule: the same run traced under
     each clock records exactly the wall events, projected.  Events, not
     stamps: sequence numbers shift where events are dropped. *)
  List.iter
    (fun (msg, policy) ->
      let events clock =
        let trace = Trace.create ~clock () in
        ignore (run_cfr ?policy ~trace ~jobs:1 ~pool:60 ());
        List.map (fun st -> st.Trace.event) (Trace.events trace)
      in
      let wall = events Trace.Wall in
      let projected = List.filter_map Event.logical wall in
      Alcotest.(check bool) (msg ^ ": the projection drops something") true
        (List.length projected < List.length wall);
      Alcotest.(check (list string)) msg
        (List.map event_line projected)
        (List.map event_line (events Trace.Logical)))
    [ ("fault-free", None); ("faulty", Some faulty_policy) ]

(* --- exporters and report ---------------------------------------------- *)

let with_temp_file content f =
  let path = Filename.temp_file "ft_obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc content);
      f path)

let test_jsonl_roundtrip () =
  let _, bytes, trace = jsonl ~clock:Trace.Wall ~jobs:1 ~pool:12 () in
  with_temp_file bytes @@ fun path ->
  match Report.load path with
  | Error msg -> Alcotest.fail ("load failed: " ^ msg)
  | Ok t ->
      Alcotest.(check string) "clock" "wall" t.Report.clock;
      Alcotest.(check int) "every event survives" (Trace.length trace)
        (List.length t.Report.entries)

let test_jsonl_roundtrip_logical () =
  let _, bytes, trace = jsonl ~clock:Trace.Logical ~jobs:1 ~pool:12 () in
  with_temp_file bytes @@ fun path ->
  match Report.load path with
  | Error msg -> Alcotest.fail ("load failed: " ^ msg)
  | Ok t ->
      Alcotest.(check string) "clock" "logical" t.Report.clock;
      Alcotest.(check int) "every event survives" (Trace.length trace)
        (List.length t.Report.entries)

let test_load_rejects_garbage () =
  (let r = with_temp_file "not a trace\n" (fun path -> Report.load path) in
   match r with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "garbage accepted");
  let truncated =
    "{\"trace\":\"funcytuner/1\",\"clock\":\"wall\",\"events\":5}\n"
  in
  match with_temp_file truncated (fun path -> Report.load path) with
  | Error msg ->
      Alcotest.(check bool) "mentions the count mismatch" true
        (Test_helpers.contains msg "5")
  | Ok _ -> Alcotest.fail "truncated trace accepted"

let test_chrome_export_parses () =
  let trace = Trace.create ~clock:Trace.Wall () in
  let _ = run_cfr ~trace ~jobs:1 ~pool:12 () in
  match Json.of_string (Export.chrome_string trace) with
  | Error msg -> Alcotest.fail ("chrome export is not JSON: " ^ msg)
  | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.List events) ->
          Alcotest.(check int) "one trace_event per recorded event"
            (Trace.length trace) (List.length events)
      | _ -> Alcotest.fail "missing traceEvents array")

let test_report_sections () =
  let _, bytes, _ =
    jsonl ~policy:faulty_policy ~clock:Trace.Wall ~jobs:1 ~pool:24 ()
  in
  with_temp_file bytes @@ fun path ->
  match Report.load path with
  | Error msg -> Alcotest.fail ("load failed: " ^ msg)
  | Ok t ->
      let rendered = Report.render t in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("section: " ^ needle) true
            (Test_helpers.contains rendered needle))
        [
          "Per-phase breakdown";
          "Cache hit-rate over time";
          "Convergence";
          "Faults and recovery";
          "Per-loop focused pools";
          "Derived engine counters";
          "search";
          "collect";
        ]

let suite =
  ( "obs",
    [
      Alcotest.test_case "results independent of --jobs" `Quick
        test_results_jobs_independent;
      Alcotest.test_case "logical trace bytes independent of --jobs" `Quick
        test_logical_trace_jobs_independent;
      Alcotest.test_case "tracing changes no result" `Quick
        test_trace_off_invariance;
      Alcotest.test_case "counters derivable (fault-free)" `Quick
        test_counters_derivable_fault_free;
      Alcotest.test_case "counters derivable (faulty)" `Quick
        test_counters_derivable_faulty;
      Alcotest.test_case "counting rule: each event moves its counter"
        `Quick test_counting_rule;
      Alcotest.test_case "logical trace is the wall trace projected" `Quick
        test_logical_is_projection_of_wall;
      Alcotest.test_case "jsonl round-trip (wall)" `Quick test_jsonl_roundtrip;
      Alcotest.test_case "jsonl round-trip (logical)" `Quick
        test_jsonl_roundtrip_logical;
      Alcotest.test_case "malformed traces rejected" `Quick
        test_load_rejects_garbage;
      Alcotest.test_case "chrome export parses" `Quick
        test_chrome_export_parses;
      Alcotest.test_case "report renders every section" `Quick
        test_report_sections;
    ] )
