(* funcy — the FuncyTuner command-line driver.

   Subcommands:
     list         benchmarks and platforms
     profile      Caliper-profile a benchmark at O3 and show hot loops
     decisions    per-region code-generation decisions for a CV
     tune         run one tuning algorithm on one benchmark/platform
     selfcheck    differential checkpoint/resume equivalence oracle
     experiment   regenerate paper tables/figures (the evaluation driver)
     report       summarize a run from its --trace file *)

open Cmdliner
open Ft_prog
module Result = Funcytuner.Result
module Tuner = Funcytuner.Tuner
module Engine = Ft_engine.Engine
module Cache = Ft_engine.Cache
module Quarantine = Ft_engine.Quarantine
module Checkpoint = Ft_engine.Checkpoint
module Trace = Ft_obs.Trace

let program_arg =
  let parse s =
    match Ft_suite.Suite.find s with
    | Some p -> Ok p
    | None -> Error (`Msg ("unknown benchmark: " ^ s))
  in
  let print fmt (p : Program.t) = Format.pp_print_string fmt p.Program.name in
  Arg.conv (parse, print)

let platform_arg =
  let parse s =
    match Platform.of_short_name (String.lowercase_ascii s) with
    | Some p -> Ok p
    | None -> Error (`Msg "platform must be one of: opteron, snb, bdw")
  in
  let print fmt p = Format.pp_print_string fmt (Platform.short_name p) in
  Arg.conv (parse, print)

let program_t =
  Arg.(
    required
    & opt (some program_arg) None
    & info [ "b"; "benchmark" ] ~docv:"NAME"
        ~doc:"Benchmark (lulesh, cl, amg, optewe, bwaves, fma3d, swim).")

let platform_t =
  Arg.(
    value
    & opt platform_arg Platform.Broadwell
    & info [ "p"; "platform" ] ~docv:"PLATFORM"
        ~doc:"Platform: opteron, snb or bdw (default bdw).")

let seed_t =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N" ~doc:"Experiment seed (default 42).")

let bounded_int_arg ~what ~min_v =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min_v -> Ok n
    | Some n ->
        Error (`Msg (Printf.sprintf "%s must be >= %d, got %d" what min_v n))
    | None ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let pool_t =
  Arg.(
    value
    & opt (bounded_int_arg ~what:"pool" ~min_v:1) 1000
    & info [ "k"; "pool" ] ~docv:"K"
        ~doc:"Pre-sampled CV pool size / evaluation budget (default 1000).")

let jobs_t =
  Arg.(
    value
    & opt (bounded_int_arg ~what:"jobs" ~min_v:1) 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Evaluation-engine workers (default 1 = sequential). \
           Results are bit-identical for any value.")

let backend_t =
  let backend_arg =
    let parse s =
      match Ft_engine.Backend.of_name s with
      | Some b -> Ok b
      | None ->
          Error
            (`Msg
               (Printf.sprintf "unknown backend '%s', expected %s" s
                  (String.concat " or "
                     (List.map Ft_engine.Backend.to_name Ft_engine.Backend.all))))
    in
    let print fmt b =
      Format.pp_print_string fmt (Ft_engine.Backend.to_name b)
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt backend_arg Ft_engine.Backend.default
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Evaluation substrate: $(b,domains) (default; shared-memory OCaml \
           domains), $(b,processes) (a pool of $(b,--jobs) forked workers \
           fed chunks of each batch — a crashing evaluation loses one \
           worker, never the search) or $(b,sharded) (the same pool with \
           $(b,--nodes) workers).  Tune output and logical traces are \
           byte-identical across backends.")

let kill_workers_t =
  Arg.(
    value
    & opt (some (bounded_int_arg ~what:"kill-workers-after" ~min_v:0)) None
    & info [ "kill-workers-after" ] ~docv:"N"
        ~doc:
          "Testing hook (either forked backend, $(b,processes) or \
           $(b,sharded)): in each batch's first round, the worker that \
           starts the batch's job $(docv) (counting from 0) SIGKILLs \
           itself, exercising crash recovery; results still match an \
           uninterrupted run.")

let nodes_t =
  Arg.(
    value
    & opt (bounded_int_arg ~what:"nodes" ~min_v:1) 1
    & info [ "nodes" ] ~docv:"N"
        ~doc:
          "Worker count for $(b,--backend sharded) (default 1): each \
           batch runs on $(docv) forked workers fed contiguous chunks \
           from one shared cursor.  Results are bit-identical for any \
           value.")

(* --- the engine: one flag set, one builder ------------------------------ *)

(* What [tune], [experiment], [serve] and [selfcheck] build their
   engines from: the substrate and the fault policy. *)
type engine_spec = {
  jobs : int;
  backend : Ft_engine.Backend.t;
  kill_workers_after : int option;
  nodes : int;
  policy : Engine.policy;
  fault_seed : int;  (* [experiment faults] arms its own rates with it *)
}

let engine_spec_t =
  let rate_arg =
    let parse s =
      match float_of_string_opt s with
      | Some r when r >= 0.0 && r <= 1.0 -> Ok r
      | Some r ->
          Error (`Msg (Printf.sprintf "fault rate must be in [0,1], got %g" r))
      | None ->
          Error (`Msg (Printf.sprintf "invalid value '%s', expected a float" s))
    in
    Arg.conv (parse, fun fmt r -> Format.fprintf fmt "%g" r)
  in
  let timeout_arg =
    let parse s =
      match float_of_string_opt s with
      | Some t when t > 0.0 -> Ok t
      | Some t ->
          Error (`Msg (Printf.sprintf "timeout must be positive, got %g" t))
      | None ->
          Error (`Msg (Printf.sprintf "invalid value '%s', expected a float" s))
    in
    Arg.conv (parse, fun fmt t -> Format.fprintf fmt "%g" t)
  in
  let faults_t =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Arm the deterministic fault-injection model: compile \
             failures, crashes, wrong answers, hangs and timing outliers, \
             all reproducible from $(b,--fault-seed) at any $(b,--jobs).  \
             $(b,experiment faults) sets its own rates, so there it arms \
             only the engine the other experiments run on.")
  in
  let rate_t =
    Arg.(
      value & opt rate_arg 0.1
      & info [ "fault-rate" ] ~docv:"R"
          ~doc:
            "Overall injected fault rate in [0,1] (default 0.1); not the \
             rates $(b,experiment faults) sweeps.")
  in
  let fault_seed_t =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:"Seed of the fault schedule (default 1).")
  in
  let timeout_t =
    Arg.(
      value
      & opt (some timeout_arg) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-run (simulated) wall-clock budget; hung runs exceeding it \
             are killed, retried if transient, then quarantined (default \
             3600).")
  in
  let repeats_t =
    Arg.(
      value
      & opt (bounded_int_arg ~what:"repeats" ~min_v:1) 1
      & info [ "repeats" ] ~docv:"N"
          ~doc:
            "Measurements per configuration, aggregated by outlier-robust \
             median selection (default 1).")
  in
  let retries_t =
    Arg.(
      value
      & opt (bounded_int_arg ~what:"retries" ~min_v:0) 2
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retry budget for transient crashes/timeouts (default 2).")
  in
  let combine jobs backend kill_workers_after nodes faults fault_rate
      fault_seed timeout repeats max_retries =
    let base = Engine.default_policy in
    let policy =
      {
        base with
        Engine.faults =
          (if faults then
             Some (Ft_fault.Fault.make ~seed:fault_seed ~rate:fault_rate ())
           else None);
        timeout_s = Option.value ~default:base.Engine.timeout_s timeout;
        max_retries;
        repeats;
      }
    in
    { jobs; backend; kill_workers_after; nodes; policy; fault_seed }
  in
  Term.(
    const combine $ jobs_t $ backend_t $ kill_workers_t $ nodes_t $ faults_t
    $ rate_t $ fault_seed_t $ timeout_t $ repeats_t $ retries_t)

(* The one place the binary builds an engine. *)
let engine_of spec ?telemetry ?cache ?quarantine ?checkpoint ?trace () =
  Engine.create ~jobs:spec.jobs ~backend:spec.backend
    ?kill_workers_after:spec.kill_workers_after ~nodes:spec.nodes
    ~policy:spec.policy ?telemetry ?cache ?quarantine ?checkpoint ?trace ()

(* --- persistence flags: tune, experiment and a stateless serve ---------- *)

let checkpoint_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"PATH"
        ~doc:
          "Keep the measurement cache and quarantine list in the log \
           $(docv), appending the run's new entries 64 at a time and at \
           exit; if $(docv) already exists, resume from it — a killed \
           search re-run with the same arguments reaches a bit-identical \
           result.  Concurrent funcy processes may share one $(docv): \
           each adopts the entries the others append, under an exclusive \
           lock on $(docv).lock.")

let die_after_t =
  Arg.(
    value
    & opt (some (bounded_int_arg ~what:"die-after" ~min_v:1)) None
    & info [ "die-after" ] ~docv:"N"
        ~doc:
          "Testing hook: after $(docv) engine jobs, flush the checkpoint, \
           write the trace and $(b,--stats) as at a normal exit, then \
           abort (exit 99), simulating a mid-search crash.")

(* With --checkpoint, attach the log to the engine, resuming from it when
   it already exists.  Resume chatter goes to stderr so stdout stays
   byte-comparable across resumed runs. *)
let open_engine spec ?trace = function
  | None -> engine_of spec ?trace ()
  | Some path -> (
      let ck = Checkpoint.create ~path () in
      match Checkpoint.load ck with
      | Some (cache, quarantine) ->
          Printf.eprintf
            "funcy: resuming from %s (%d cached summaries, %d quarantined)\n%!"
            path (Cache.length cache)
            (Quarantine.length quarantine);
          Trace.emit trace
            (Ft_obs.Event.Checkpoint_loaded
               { path; entries = Cache.length cache });
          engine_of spec ~cache ~quarantine ~checkpoint:ck ?trace ()
      | None -> engine_of spec ~checkpoint:ck ?trace ())

(* --- output flags: the trace and --stats -------------------------------- *)

type outputs = {
  trace_path : string option;
  trace_clock : Trace.clock;
  trace_format : [ `Jsonl | `Chrome ];
  stats : bool;
}

let outputs_t =
  let path_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record every engine and search event (jobs, cache decisions, \
             faults, retries, phase spans) and write the trace to $(docv) \
             at exit.  Without this flag not a single event is recorded \
             and all output is byte-identical to an untraced run.")
  in
  let clock_t =
    Arg.(
      value
      & opt (enum [ ("wall", Trace.Wall); ("logical", Trace.Logical) ])
          Trace.Wall
      & info [ "trace-clock" ] ~docv:"CLOCK"
          ~doc:
            "$(b,wall) (default) stamps events with elapsed seconds and \
             records schedule-dependent detail (cache hit/miss split, \
             builds, timers); $(b,logical) stamps canonical event order \
             only, making the trace bytes reproducible at any $(b,--jobs) \
             count.")
  in
  let format_t =
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
      & info [ "trace-format" ] ~docv:"FMT"
          ~doc:
            "$(b,jsonl) (default): one JSON event per line, readable by \
             $(b,funcy report); $(b,chrome): a chrome://tracing / Perfetto \
             trace_event file.")
  in
  let stats_t =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print engine telemetry (builds, runs, cache, timers) at exit.")
  in
  let combine trace_path trace_clock trace_format stats =
    { trace_path; trace_clock; trace_format; stats }
  in
  Term.(const combine $ path_t $ clock_t $ format_t $ stats_t)

let make_trace out =
  Option.map (fun _ -> Trace.create ~clock:out.trace_clock ()) out.trace_path

(* The one exit path of [tune], [experiment] and [serve] — a return, an
   exception or the --die-after crash: sync the checkpoint log, write
   the trace collected so far (a post-mortem [funcy report] on a crashed
   run is precisely the observability story), print --stats. *)
let finish out trace ?engine telemetry =
  Option.iter Engine.flush_checkpoint engine;
  (match (out.trace_path, trace) with
  | Some path, Some t -> (
      match out.trace_format with
      | `Jsonl -> Ft_obs.Export.write_jsonl t ~path
      | `Chrome -> Ft_obs.Export.write_chrome t ~path)
  | _ -> ());
  if out.stats then begin
    print_newline ();
    print_string (Ft_obs.Telemetry.render telemetry)
  end

(* Run [f] on the engine the flags describe, leaving through [finish]. *)
let with_engine spec out ~checkpoint ~die_after f =
  let trace = make_trace out in
  let engine = open_engine spec ?trace checkpoint in
  let telemetry = Engine.telemetry engine in
  let finish () = finish out trace ~engine telemetry in
  Option.iter
    (fun n ->
      Ft_obs.Telemetry.set_progress telemetry (fun ~completed ->
          if completed >= n then begin
            finish ();
            Printf.eprintf "funcy: --die-after %d: simulated crash\n%!" n;
            exit 99
          end))
    die_after;
  Fun.protect ~finally:finish (fun () -> f engine)

(* --- list ------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Ft_util.Table.print (Ft_suite.Suite.table1 ());
    print_newline ();
    Ft_util.Table.print (Ft_suite.Suite.table2 ())
  in
  Cmd.v (Cmd.info "list" ~doc:"Show the benchmark suite and platforms")
    Term.(const run $ const ())

(* --- profile ---------------------------------------------------------- *)

let profile_cmd =
  let run program platform seed =
    let toolchain = Ft_machine.Toolchain.make platform in
    let input = Ft_suite.Suite.tuning_input platform program in
    let report =
      Ft_caliper.Profiler.run ~toolchain ~program ~input
        ~rng:(Ft_util.Rng.create seed) ()
    in
    Printf.printf "Caliper profile of %s on %s (input %s):\n\n"
      program.Program.name (Platform.name platform) input.Input.label;
    print_string (Ft_caliper.Report.render report);
    let hot = Ft_caliper.Report.hot_loops ~threshold:0.01 report in
    Printf.printf "\nhot loops (>= 1%%): %s\n" (String.concat ", " hot)
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Caliper-profile a benchmark at O3")
    Term.(const run $ program_t $ platform_t $ seed_t)

(* --- decisions -------------------------------------------------------- *)

let decisions_cmd =
  let cv_arg =
    (* A dedicated converter so a typo yields a cmdliner usage error (with
       exit code 124) instead of an uncaught exception and backtrace. *)
    let parse s =
      match Ft_flags.Cv.of_compact s with
      | Some cv -> Ok cv
      | None ->
          Error
            (`Msg
               (Printf.sprintf
                  "malformed compact CV '%s': expected dot-separated value \
                   indices as printed by 'funcy tune' (e.g. the O3 default \
                   is '%s')"
                  s
                  (Ft_flags.Cv.to_compact Ft_flags.Cv.o3)))
    in
    let print fmt cv =
      Format.pp_print_string fmt (Ft_flags.Cv.to_compact cv)
    in
    Arg.conv (parse, print)
  in
  let cv_t =
    Arg.(
      value
      & opt (some cv_arg) None
      & info [ "cv" ] ~docv:"COMPACT"
          ~doc:
            "Compact CV encoding (dot-separated value indices); defaults \
             to the O3 baseline.")
  in
  let run program platform cv_compact =
    let cv = Option.value ~default:Ft_flags.Cv.o3 cv_compact in
    let toolchain = Ft_machine.Toolchain.make platform in
    let input = Ft_suite.Suite.tuning_input platform program in
    let binary = Ft_machine.Toolchain.compile_uniform toolchain ~cv program in
    let run_report =
      Ft_machine.Exec.evaluate ~arch:toolchain.Ft_machine.Toolchain.arch
        ~input binary
    in
    Printf.printf "%s on %s with: %s\n" program.Program.name
      (Platform.name platform) (Ft_flags.Cv.render cv);
    Printf.printf "end-to-end: %.3f s\n\n" run_report.Ft_machine.Exec.total_s;
    let table =
      Ft_util.Table.create ~title:"Per-region decisions"
        [ "region"; "seconds"; "decision" ]
    in
    List.iter
      (fun (r : Ft_machine.Exec.region_report) ->
        Ft_util.Table.add_row table
          [
            r.Ft_machine.Exec.name;
            Ft_util.Table.fmt_f r.Ft_machine.Exec.seconds;
            Ft_compiler.Decision.summary r.Ft_machine.Exec.decision;
          ])
      (run_report.Ft_machine.Exec.loops
      @ [ run_report.Ft_machine.Exec.nonloop ]);
    Ft_util.Table.print table;
    print_newline ();
    print_string (Ft_machine.Explain.render run_report)
  in
  Cmd.v
    (Cmd.info "decisions"
       ~doc:"Show per-region code-generation decisions for a CV")
    Term.(const run $ program_t $ platform_t $ cv_t)

(* --- tune ------------------------------------------------------------- *)

let tune_cmd =
  (* The search table's algorithms print their result alone — the bytes
     the tuning server returns for the same spec; the others print extra
     lines of their own. *)
  let algo_t =
    let algos =
      List.map (fun name -> (name, `Search name)) Tuner.searches
      @ [
          ("greedy", `Greedy);
          ("opentuner", `Opentuner);
          ("cobayn", `Cobayn);
          ("ce", `Ce);
          ("pgo", `Pgo);
        ]
    in
    Arg.(
      value
      & opt (enum algos) (`Search "cfr")
      & info [ "a"; "algorithm" ] ~docv:"ALGO"
          ~doc:
            (Printf.sprintf "One of: %s (default cfr)."
               (String.concat ", " (List.map fst algos))))
  in
  let top_x_t =
    Arg.(
      value
      & opt (some (bounded_int_arg ~what:"top-x" ~min_v:1)) None
      & info [ "top-x" ] ~docv:"X"
          ~doc:
            "Space-focusing width (default: each algorithm's own — 20 \
             for cfr/cfr-adaptive, 4 for adaptive-sh).")
  in
  let budget_t =
    Arg.(
      value
      & opt (some (bounded_int_arg ~what:"budget" ~min_v:1)) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "adaptive-sh only: total measurement budget for the \
             successive-halving allocator (default: a quarter of the \
             pool size).")
  in
  let warm_start_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "warm-start" ] ~docv:"CACHE"
          ~doc:
            "adaptive-sh only: a previous run's persistent cache file \
             (e.g. a --checkpoint log); arms whose assignments it already \
             holds are pre-scored as allocator priors, costing no \
             budget.")
  in
  let run program platform seed pool spec checkpoint die_after out algo top_x
      budget warm_start =
    with_engine spec out ~checkpoint ~die_after @@ fun engine ->
    let print_result r = print_string (Result.render r) in
    let session =
      Tuner.make_session ~pool_size:pool ~engine ~platform ~program
        ~input:(Ft_suite.Suite.tuning_input platform program)
        ~seed ()
    in
    let ctx = session.Tuner.ctx in
    Printf.printf "%s on %s: T_O3 = %.3f s, %d modules outlined\n"
      program.Program.name (Platform.name platform)
      ctx.Funcytuner.Context.baseline_s
      (Ft_outline.Outline.module_count session.Tuner.outline - 1);
    (match spec.policy.Engine.faults with
    | Some f -> Printf.printf "fault model: %s\n" (Ft_fault.Fault.describe f)
    | None -> ());
    print_newline ();
    match algo with
    | `Search name ->
        print_result (Tuner.search ?top_x ?budget ?warm_start name session)
    | `Greedy ->
        let g =
          Funcytuner.Greedy.run ctx (Lazy.force session.Tuner.collection)
        in
        print_result g.Funcytuner.Greedy.realized;
        Printf.printf "  G.Independent bound: speedup %.3f\n"
          g.Funcytuner.Greedy.independent_speedup
    | `Opentuner ->
        let o = Ft_opentuner.Ensemble.run ctx in
        print_result o.Ft_opentuner.Ensemble.result;
        Printf.printf "  technique usage: %s\n"
          (String.concat ", "
             (List.map
                (fun (n, u) -> Printf.sprintf "%s=%d" n u)
                o.Ft_opentuner.Ensemble.technique_uses))
    | `Cobayn ->
        let toolchain = Ft_machine.Toolchain.make platform in
        let model =
          Ft_cobayn.Model.train ~toolchain ~variant:Ft_cobayn.Features.Static
            ~corpus_seed:seed ()
        in
        print_result (Ft_cobayn.Model.tune model ctx)
    | `Ce ->
        let toolchain = Ft_machine.Toolchain.make platform in
        let input = Ft_suite.Suite.tuning_input platform program in
        let ce =
          Ft_baselines.Ce.run ?faults:spec.policy.Engine.faults
            ?trace:(Engine.trace engine) ~toolchain ~program ~input
            ~rng:(Ft_util.Rng.create seed)
            ()
        in
        Printf.printf
          "CE: speedup %.3f over O3 after %d evaluations (%d eliminations%s)\n\
          \  final CV: %s\n"
          ce.Ft_baselines.Ce.speedup ce.Ft_baselines.Ce.evaluations
          (List.length ce.Ft_baselines.Ce.steps)
          (if ce.Ft_baselines.Ce.failures > 0 then
             Printf.sprintf ", %d trials lost to faults"
               ce.Ft_baselines.Ce.failures
           else "")
          (Ft_flags.Cv.render ce.Ft_baselines.Ce.cv)
    | `Pgo ->
        let toolchain = Ft_machine.Toolchain.make platform in
        let input = Ft_suite.Suite.tuning_input platform program in
        let pgo =
          Ft_baselines.Pgo_driver.run ?trace:(Engine.trace engine) ~toolchain
            ~program ~input
            ~rng:(Ft_util.Rng.create seed) ()
        in
        Printf.printf "PGO: speedup %.3f over O3%s\n"
          pgo.Ft_baselines.Pgo_driver.speedup
          (match pgo.Ft_baselines.Pgo_driver.diagnostic with
          | Some msg -> "\n  note: " ^ msg
          | None -> "")
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Run one auto-tuning algorithm")
    Term.(
      const run $ program_t $ platform_t $ seed_t $ pool_t $ engine_spec_t
      $ checkpoint_t $ die_after_t $ outputs_t $ algo_t $ top_x_t $ budget_t
      $ warm_start_t)

(* --- selfcheck --------------------------------------------------------- *)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_scratch_dir f =
  let path = Filename.temp_file "funcy-selfcheck" ".d" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  Fun.protect ~finally:(fun () -> remove_tree path) (fun () -> f path)

let selfcheck_cmd =
  let algos_t =
    Arg.(
      value
      & opt_all (enum (List.map (fun name -> (name, name)) Tuner.searches)) []
      & info [ "a"; "algorithm" ] ~docv:"ALGO"
          ~doc:
            (Printf.sprintf "Search to check: %s (repeatable; default: all \
                             five)."
               (String.concat ", " Tuner.searches)))
  in
  let kill_at_t =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "kill-at" ] ~docv:"N,..."
          ~doc:
            "Evaluation boundaries to kill at (comma-separated), clamped \
             to the reference run's range.  Default: the first, a middle \
             and the last boundary.  Under $(b,--serve) these are \
             request-acknowledgement boundaries instead: N kills the \
             daemon as it acknowledges the Nth request, values outside 1 \
             to the request count are dropped, and the default is every \
             boundary.")
  in
  let serve_t =
    Arg.(
      value & flag
      & info [ "serve" ]
          ~doc:
            "Instead of the checkpoint/resume oracle, run the \
             kill-restart equivalence oracle for the tuning service on \
             two requests (seeds $(b,--seed) and $(b,--seed) + 1) per \
             selected search: a supervised, journalled daemon is \
             SIGKILLed at each $(b,--kill-at) request boundary and \
             mid-search, clients reconnect-and-resume, and every \
             delivered result must be byte-identical to an unkilled \
             daemon's and to a solo run; a spec of the first selected \
             search that keeps crashing the daemon must end as a typed \
             poisoned rejection.  Exits 1 on any divergence.")
  in
  (* The service-side oracle: forked supervised daemons, so it must run
     before this process spawns any domain. *)
  let run_serve_oracle program platform seed pool spec algos kill_points =
    with_scratch_dir @@ fun scratch ->
    let make_runner ~state_dir =
      let make_engine ?cache ?quarantine ?checkpoint () =
        engine_of spec ?cache ?quarantine ?checkpoint ()
      in
      Ft_serve.Runner.make_durable ~make_engine ~state_dir ~checkpoint_every:8
        ()
    in
    let tune_spec algorithm seed =
      {
        Ft_serve.Protocol.benchmark = program.Program.name;
        platform = Platform.short_name platform;
        algorithm;
        seed;
        pool;
        top_x = None;
      }
    in
    let specs =
      List.concat_map (fun a -> [ tune_spec a seed; tune_spec a (seed + 1) ])
        algos
      |> List.mapi (fun i spec ->
             (Printf.sprintf "sc-%d" (i + 1), Printf.sprintf "t%d" (i mod 2),
              spec))
    in
    let outcome =
      Ft_serve.Servecheck.run ?kill_points ~scratch ~make_runner ~specs
        ~poison:("sc-poison", "t0", tune_spec (List.hd algos) (seed + 2))
        ()
    in
    print_string (Ft_serve.Servecheck.render outcome);
    if not (Ft_serve.Servecheck.passed outcome) then exit 1
  in
  let run program platform seed pool spec algos_selected kill_at serve =
    let algos_selected =
      match algos_selected with [] -> Tuner.searches | l -> l
    in
    if serve then
      run_serve_oracle program platform seed pool spec algos_selected kill_at
    else begin
    let input = Ft_suite.Suite.tuning_input platform program in
    with_scratch_dir @@ fun scratch ->
    let failures =
      List.filter
        (fun name ->
          let label =
            Printf.sprintf "%s (%s on %s, seed %d, jobs %d, backend %s)" name
              program.Program.name
              (Platform.short_name platform)
              seed spec.jobs
              (Ft_engine.Backend.to_name spec.backend)
          in
          let make_engine ~cache ~quarantine ~checkpoint ~trace =
            engine_of spec ~cache ~quarantine ?checkpoint ?trace ()
          in
          let search engine =
            Result.render_exact
              (Tuner.search name
                 (Tuner.make_session ~pool_size:pool ~engine ~platform
                    ~program ~input ~seed ()))
          in
          let outcome =
            Ft_engine.Selfcheck.run ?kill_points:kill_at ~scratch ~label
              ~make_engine ~search ()
          in
          print_string (Ft_engine.Selfcheck.render outcome);
          not (Ft_engine.Selfcheck.passed outcome))
        algos_selected
    in
    if failures <> [] then exit 1
    end
  in
  Cmd.v
    (Cmd.info "selfcheck"
       ~doc:
         "Differential checkpoint/resume equivalence oracle: for each \
          selected search, compare an uninterrupted run against runs \
          killed at several evaluation boundaries and resumed from their \
          checkpoints, asserting byte-identical results, caches, \
          quarantines and normalized logical traces.  With $(b,--serve), \
          check the tuning service's kill-restart equivalence instead.  \
          Exits 1 on any divergence.")
    Term.(
      const run $ program_t $ platform_t $ seed_t $ pool_t $ engine_spec_t
      $ algos_t $ kill_at_t $ serve_t)

(* --- experiment ------------------------------------------------------- *)

(* Every experiment id, in the order a run with no id executes them. *)
let experiment_names =
  [
    "tab1"; "tab2"; "fig1"; "fig5a"; "fig5b"; "fig5c"; "fig6"; "fig7a";
    "fig7b"; "fig8"; "fig9"; "tab3"; "ablations"; "adaptive"; "faults";
  ]

(* "faults" sweeps fault rates on engines of its own, so a run with no id
   leaves it out. *)
let default_experiments = List.filter (( <> ) "faults") experiment_names

let experiment_cmd =
  let csv_dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv-dir" ] ~docv:"DIR"
          ~doc:
            "Also write each figure-shaped experiment as CSV into $(docv) \
             (created if missing, parents included).")
  in
  let experiment_arg =
    (* Validated up front so a typo is a usage error with the valid names,
       not an uncaught exception after the preceding experiments ran. *)
    let parse s =
      if List.mem s experiment_names then Ok s
      else
        Error
          (`Msg
             (Printf.sprintf "unknown experiment '%s', expected one of: %s" s
                (String.concat ", " experiment_names)))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let names_t =
    Arg.(
      value & pos_all experiment_arg []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            (Printf.sprintf "%s (default: all of them but faults)."
               (String.concat " " experiment_names)))
  in
  let run seed pool spec checkpoint die_after out csv_dir names =
    (* Created before any work, so a bad directory cannot cost a run. *)
    Option.iter
      (fun dir ->
        let fail msg =
          Printf.eprintf "funcy experiment: --csv-dir %s: %s\n" dir msg;
          exit 1
        in
        match Ft_engine.Atomic_file.mkdir_p dir with
        | () -> if not (Sys.is_directory dir) then fail "not a directory"
        | exception Unix.Unix_error (err, _, _) -> fail (Unix.error_message err))
      csv_dir;
    with_engine spec out ~checkpoint ~die_after @@ fun engine ->
    let lab = Ft_experiments.Lab.create ~seed ~pool_size:pool ~engine () in
    let open Ft_experiments in
    let emit name series =
      Series.print series;
      match csv_dir with
      | None -> ()
      | Some dir ->
          let path = Filename.concat dir (name ^ ".csv") in
          Csv.write ~path series;
          Printf.printf "(wrote %s)\n" path
    in
    let dispatch = function
      | "tab1" -> Ft_util.Table.print (Ft_suite.Suite.table1 ())
      | "tab2" -> Ft_util.Table.print (Ft_suite.Suite.table2 ())
      | "fig1" -> emit "fig1" (Fig1.run lab)
      | "fig5a" -> emit "fig5a" (Fig5.panel lab Platform.Opteron)
      | "fig5b" -> emit "fig5b" (Fig5.panel lab Platform.Sandy_bridge)
      | "fig5c" -> emit "fig5c" (Fig5.panel lab Platform.Broadwell)
      | "fig6" ->
          emit "fig6" (Fig6.run lab);
          (* The paper's "PGO fails" claim: which programs' runs failed. *)
          List.iter
            (fun p ->
              Option.iter
                (Printf.printf "  note: %s\n")
                (Lab.pgo lab p).Ft_baselines.Pgo_driver.diagnostic)
            Ft_suite.Suite.all
      | "fig7a" -> emit "fig7a" (Fig7.panel lab ~small:true)
      | "fig7b" -> emit "fig7b" (Fig7.panel lab ~small:false)
      | "fig8" -> emit "fig8" (Fig8.run lab)
      | "fig9" -> emit "fig9" (Casestudy.fig9 lab)
      | "tab3" -> Ft_util.Table.print (Casestudy.table3 lab)
      | "faults" ->
          (* Each rate's engine is the run's, with only the fault model
             swapped; it shares the run's cache, telemetry and trace, but
             takes a fresh quarantine and no checkpoint. *)
          let rate_engine faults =
            engine_of
              { spec with policy = { spec.policy with Engine.faults } }
              ~cache:(Engine.cache engine)
              ~telemetry:(Engine.telemetry engine)
              ?trace:(Engine.trace engine) ()
          in
          emit "faults"
            (Faults.run ~engine:rate_engine ~fault_seed:spec.fault_seed ~seed
               ~pool_size:pool ())
      | "ablations" ->
          emit "topx" (Ablations.top_x_sweep lab);
          Ft_util.Table.print (Ablations.convergence lab);
          Ft_util.Table.print (Ablations.adaptive_budget lab);
          emit "elimination" (Ablations.elimination_variants lab);
          Ft_util.Table.print (Ablations.critical_flags_table lab)
      | "adaptive" -> Ft_util.Table.print (Ablations.quality_vs_budget lab)
      | _ ->
          (* unreachable: names are validated by [experiment_arg] *)
          assert false
    in
    List.iter dispatch (match names with [] -> default_experiments | n -> n)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate paper tables and figures")
    Term.(
      const run $ seed_t $ pool_t $ engine_spec_t $ checkpoint_t
      $ die_after_t $ outputs_t $ csv_dir_t $ names_t)

(* --- report ------------------------------------------------------------ *)

let report_cmd =
  let file_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"A JSONL trace written by $(b,--trace) (default format).")
  in
  let run file =
    match Ft_obs.Report.load file with
    | Stdlib.Ok t -> print_string (Ft_obs.Report.render t)
    | Stdlib.Error msg ->
        Printf.eprintf "funcy report: %s\n" msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Summarize a traced run: per-phase breakdown, cache hit-rate, \
          convergence curve, fault/retry table, derived engine counters")
    Term.(const run $ file_t)

(* --- serve / client / loadgen ------------------------------------------ *)

module Serve = Ft_serve.Server
module Sproto = Ft_serve.Protocol
module Sclient = Ft_serve.Client

let socket_t =
  Arg.(
    value & opt string "funcy.sock"
    & info [ "s"; "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket the tuning daemon listens on (default \
           funcy.sock in the current directory).")

let serve_cmd =
  let max_queue_t =
    Arg.(
      value
      & opt (bounded_int_arg ~what:"max-queue" ~min_v:1) 256
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission bound: waiting requests beyond $(docv) are \
             rejected with a typed queue_full backpressure response \
             (default 256).")
  in
  let progress_every_t =
    Arg.(
      value
      & opt (bounded_int_arg ~what:"progress-every" ~min_v:1) 25
      & info [ "progress-every" ] ~docv:"N"
          ~doc:
            "Engine jobs between streamed progress heartbeats (default \
             25); sockets are drained on every job regardless, so \
             requests coalesce onto an in-flight search.")
  in
  let state_dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Durable state directory (created if missing): a \
             write-ahead request journal plus one checkpoint log per \
             running search.  A daemon restarted on the same $(docv) replays \
             unfinished requests, answers completed fingerprints from \
             the durable memo, resumes half-finished searches from \
             their checkpoints, and quarantines specs that keep \
             crashing it.")
  in
  let die_after_requests_t =
    Arg.(
      value
      & opt (some (bounded_int_arg ~what:"die-after-requests" ~min_v:1)) None
      & info [ "die-after-requests" ] ~docv:"N"
          ~doc:
            "Chaos hook: SIGKILL the daemon the instant the $(docv)th \
             accepted request of each boot is acknowledged.  Under \
             $(b,--supervise) with $(b,--state-dir) this exercises \
             crash recovery deterministically.")
  in
  let poison_threshold_t =
    Arg.(
      value
      & opt (bounded_int_arg ~what:"poison-threshold" ~min_v:1) 3
      & info [ "poison-threshold" ] ~docv:"K"
          ~doc:
            "Journalled daemon crashes during one fingerprint's search \
             before that fingerprint is quarantined and answered with a \
             typed poisoned rejection (default 3).")
  in
  let checkpoint_every_t =
    Arg.(
      value
      & opt (bounded_int_arg ~what:"checkpoint-every" ~min_v:1) 32
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "With $(b,--state-dir): sync a running search's checkpoint \
             log every $(docv) state-changing events (default 32).")
  in
  let supervise_t =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Run the daemon in a forked child under a crash monitor: \
             an abnormal death (crash, SIGKILL) is respawned with \
             capped exponential backoff up to $(b,--respawn-budget) \
             times; a clean drain ends the supervisor.")
  in
  let respawn_budget_t =
    Arg.(
      value
      & opt (bounded_int_arg ~what:"respawn-budget" ~min_v:0) 16
      & info [ "respawn-budget" ] ~docv:"N"
          ~doc:"Respawns the supervisor allows (default 16).")
  in
  (* Cmdliner reads an unambiguous prefix as the whole option name, so
     --die-after needs an entry of its own to be refused rather than
     taken for --die-after-requests. *)
  let refused_die_after_t =
    Arg.(
      value & opt (some string) None
      & info [ "die-after" ] ~docv:"N"
          ~doc:
            "Refused: the daemon has no engine-job crash hook; its crash \
             hook is $(b,--die-after-requests).")
  in
  (* A --state-dir daemon checkpoints each search in a log of its own, so
     one --checkpoint log for the daemon would go unwritten. *)
  let state_t =
    let combine state_dir checkpoint refused_die_after =
      if refused_die_after <> None then
        `Error
          (true, "--die-after is not a serve option (see \
                  --die-after-requests)")
      else if state_dir <> None && checkpoint <> None then
        `Error
          (true, "--checkpoint cannot be combined with --state-dir, which \
                  keeps one checkpoint log per search")
      else `Ok (state_dir, checkpoint)
    in
    Term.(
      ret (const combine $ state_dir_t $ checkpoint_t $ refused_die_after_t))
  in
  let run socket max_queue progress_every spec out (state_dir, checkpoint)
      die_after_requests poison_threshold checkpoint_every supervise
      respawn_budget =
    (* Everything engine-flavoured happens inside [daemon] so that under
       --supervise the forking supervisor parent never spawns a domain. *)
    let daemon ~generation:_ =
      let trace = make_trace out in
      let engine, telemetry, runner =
        match state_dir with
        | None ->
            let engine = open_engine spec ?trace checkpoint in
            ( Some engine,
              Engine.telemetry engine,
              Ft_serve.Runner.make ~engine )
        | Some dir ->
            (* One telemetry for every per-search engine, so --stats adds
               up across searches as the shared engine's does. *)
            let telemetry = Ft_obs.Telemetry.create () in
            ( None,
              telemetry,
              Ft_serve.Runner.make_durable
                ~make_engine:(engine_of spec ~telemetry ?trace)
                ~state_dir:dir ~checkpoint_every () )
      in
      let config =
        {
          (Serve.default_config ~socket_path:socket) with
          max_queue;
          progress_every;
          state_dir;
          die_after_requests;
          poison_threshold;
        }
      in
      Fun.protect ~finally:(fun () -> finish out trace ?engine telemetry)
        (fun () ->
          Serve.serve ?trace ~telemetry
            ~on_ready:(fun () ->
              Printf.eprintf "funcy serve: listening on %s\n%!" socket)
            config runner);
      print_endline "funcy serve: drained";
      0
    in
    if supervise then begin
      let config =
        { Ft_serve.Supervisor.default_config with respawn_budget }
      in
      let outcome =
        Ft_serve.Supervisor.run
          ~on_exit:(fun ~generation status ->
            Printf.eprintf "funcy serve: generation %d %s\n%!" generation
              (Ft_serve.Supervisor.exit_status_to_string status))
          config daemon
      in
      if not outcome.Ft_serve.Supervisor.clean then exit 1
    end
    else ignore (daemon ~generation:0)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the tuning-as-a-service daemon: concurrent requests for \
          the same search coalesce onto one in-flight execution, \
          tenants are served round-robin, and completed searches are \
          memoized.  With $(b,--state-dir) every accepted request is \
          journalled before acknowledgement and a restarted daemon \
          picks up exactly where the dead one stopped; add \
          $(b,--supervise) to restart it automatically.  Stop with a \
          shutdown request (or SIGTERM): the daemon drains its queue \
          and exits.")
    Term.(
      const run $ socket_t $ max_queue_t $ progress_every_t $ engine_spec_t
      $ outputs_t $ state_t $ die_after_requests_t $ poison_threshold_t
      $ checkpoint_every_t $ supervise_t $ respawn_budget_t)

let wait_t =
  let wait_arg =
    let parse s =
      match float_of_string_opt s with
      | Some w when w >= 0.0 -> Ok w
      | _ -> Error (`Msg (Printf.sprintf "invalid wait '%s'" s))
    in
    Arg.conv (parse, fun fmt w -> Format.fprintf fmt "%g" w)
  in
  Arg.(
    value & opt wait_arg 5.0
    & info [ "wait" ] ~docv:"SECONDS"
        ~doc:
          "Keep retrying an absent/refusing socket for $(docv) seconds \
           before giving up (default 5; the daemon may still be \
           starting).")

let client_cmd =
  let algo_t =
    Arg.(
      value
      & opt (enum (List.map (fun a -> (a, a)) Tuner.searches)) "cfr"
      & info [ "a"; "algorithm" ] ~docv:"ALGO"
          ~doc:
            "One of: cfr, cfr-adaptive, adaptive-sh, fr, random (the \
             searches the service accepts; default cfr).")
  in
  let top_x_t =
    Arg.(
      value
      & opt (some (bounded_int_arg ~what:"top-x" ~min_v:1)) None
      & info [ "top-x" ] ~docv:"X"
          ~doc:"CFR space-focusing width (default: the algorithm's).")
  in
  let tenant_t =
    Arg.(
      value & opt string "cli"
      & info [ "tenant" ] ~docv:"NAME"
          ~doc:"Tenant the request is accounted to (default cli).")
  in
  let id_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"ID"
          ~doc:"Request id (default: derived from the process id).")
  in
  let quiet_t =
    Arg.(
      value & flag
      & info [ "quiet" ]
          ~doc:"Suppress the lifecycle chatter on stderr; print only the \
                result.")
  in
  let ping_t =
    Arg.(
      value & flag
      & info [ "ping" ]
          ~doc:"Instead of tuning, check the daemon is alive and exit.")
  in
  let stats_t =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Instead of tuning, print the daemon's live counters (engine \
             and requests, as $(b,funcy report) re-counts them from a \
             trace), then its gauges: queue_depth, restarts, poisoned.")
  in
  let shutdown_t =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:
            "Instead of tuning, ask the daemon to drain its queue and \
             exit.")
  in
  let deadline_ms_t =
    Arg.(
      value
      & opt (some (bounded_int_arg ~what:"deadline-ms" ~min_v:1)) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Ask the server to answer within $(docv) milliseconds; a \
             request still waiting past that is rejected with a typed \
             deadline_exceeded response (protocol v2).")
  in
  let reconnect_t =
    Arg.(
      value & flag
      & info [ "reconnect" ]
          ~doc:
            "If the daemon dies mid-stream, reconnect and resend the \
             same request id (idempotent against a $(b,--state-dir) \
             daemon's journal) instead of failing — rides out \
             supervised restarts.")
  in
  let run socket program platform seed pool algo top_x tenant id wait quiet
      ping stats shutdown deadline_ms reconnect =
    let fail failure =
      Printf.eprintf "funcy client: %s\n" (Sclient.failure_to_string failure);
      exit 1
    in
    if ping then (
      match Sclient.ping ~retry_for:wait socket with
      | Stdlib.Ok () -> print_endline "pong"; exit 0
      | Stdlib.Error failure -> fail failure);
    if stats then (
      match Sclient.stats ~retry_for:wait socket with
      | Stdlib.Ok counters ->
          List.iter (fun (k, v) -> Printf.printf "%-18s %d\n" k v) counters;
          exit 0
      | Stdlib.Error failure -> fail failure);
    if shutdown then (
      match Sclient.shutdown ~retry_for:wait socket with
      | Stdlib.Ok () -> print_endline "daemon draining"; exit 0
      | Stdlib.Error failure -> fail failure);
    let program =
      match program with
      | Some p -> p
      | None ->
          Printf.eprintf
            "funcy client: required option --benchmark is missing\n";
          exit 2
    in
    let spec =
      {
        Sproto.benchmark = program.Program.name;
        platform = Platform.short_name platform;
        algorithm = algo;
        seed;
        pool;
        top_x;
      }
    in
    let id =
      match id with Some i -> i | None -> Printf.sprintf "cli-%d" (Unix.getpid ())
    in
    let say fmt = Printf.ksprintf (fun s -> if not quiet then Printf.eprintf "funcy client: %s\n%!" s) fmt in
    let on_event = function
      | Sproto.Admitted { queue_depth; _ } ->
          say "admitted (queue depth %d)" queue_depth
      | Sproto.Coalesced { leader; _ } ->
          say "coalesced onto in-flight request %s" leader
      | Sproto.Started _ -> say "search started"
      | Sproto.Progress { ticks; _ } -> say "%d engine jobs" ticks
      | _ -> ()
    in
    let submit =
      if reconnect then Sclient.tune_persistent ~attempts:8
      else Sclient.tune
    in
    match
      submit ~retry_for:wait ?deadline_ms ~on_event ~socket_path:socket ~id
        ~tenant spec
    with
    | Stdlib.Ok payload ->
        say "%s result, group of %d, search ran %.2f s"
          (Sproto.origin_to_string payload.Sproto.origin)
          payload.Sproto.group_size payload.Sproto.run_s;
        print_string payload.Sproto.text
    | Stdlib.Error failure ->
        Printf.eprintf "funcy client: %s\n" (Sclient.failure_to_string failure);
        exit 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Submit one tune request to a running daemon, stream its \
          lifecycle to stderr, and print the result — byte-identical \
          to the result block of a solo $(b,funcy tune) with the same \
          arguments.")
    Term.(
      const run $ socket_t
      $ Arg.(
          value
          & opt (some program_arg) None
          & info [ "b"; "benchmark" ] ~docv:"NAME"
              ~doc:
                "Benchmark (lulesh, cl, amg, optewe, bwaves, fma3d, swim). \
                 Required unless $(b,--ping), $(b,--stats) or \
                 $(b,--shutdown) is given.")
      $ platform_t $ seed_t $ pool_t $ algo_t $ top_x_t $ tenant_t $ id_t
      $ wait_t $ quiet_t $ ping_t $ stats_t $ shutdown_t $ deadline_ms_t
      $ reconnect_t)

let loadgen_cmd =
  let clients_t =
    Arg.(
      value
      & opt (bounded_int_arg ~what:"clients" ~min_v:0) 200
      & info [ "clients" ] ~docv:"N"
          ~doc:"Total synthetic requests to play (default 200).")
  in
  let concurrency_t =
    Arg.(
      value
      & opt (bounded_int_arg ~what:"concurrency" ~min_v:1) 64
      & info [ "concurrency" ] ~docv:"N"
          ~doc:"In-flight connection window (default 64).")
  in
  let tenants_t =
    Arg.(
      value
      & opt (bounded_int_arg ~what:"tenants" ~min_v:1) 4
      & info [ "tenants" ] ~docv:"N"
          ~doc:"Synthetic tenants, assigned uniformly (default 4).")
  in
  let zipf_t =
    let zipf_arg =
      let parse s =
        match float_of_string_opt s with
        | Some z when z >= 0.0 -> Ok z
        | _ -> Error (`Msg (Printf.sprintf "invalid zipf exponent '%s'" s))
      in
      Arg.conv (parse, fun fmt z -> Format.fprintf fmt "%g" z)
    in
    Arg.(
      value & opt zipf_arg 1.1
      & info [ "zipf" ] ~docv:"S"
          ~doc:
            "Zipf popularity exponent over the (benchmark, seed) \
             catalog: 0 is uniform, larger concentrates load on a few \
             hot searches (default 1.1).")
  in
  let seeds_per_benchmark_t =
    Arg.(
      value
      & opt (bounded_int_arg ~what:"seeds-per-benchmark" ~min_v:1) 3
      & info [ "seeds-per-benchmark" ] ~docv:"N"
          ~doc:"Tune seeds 0..N-1 per benchmark in the catalog (default 3).")
  in
  let algo_t =
    Arg.(
      value
      & opt (enum (List.map (fun a -> (a, a)) Tuner.searches))
          "cfr-adaptive"
      & info [ "a"; "algorithm" ] ~docv:"ALGO"
          ~doc:"Search every request asks for (default cfr-adaptive).")
  in
  let lg_pool_t =
    Arg.(
      value
      & opt (bounded_int_arg ~what:"pool" ~min_v:1) 60
      & info [ "k"; "pool" ] ~docv:"K"
          ~doc:"CV pool size / evaluation budget per search (default 60).")
  in
  let benchmarks_t =
    Arg.(
      value
      & opt (list string) []
      & info [ "benchmarks" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated benchmark catalog (default: the whole \
             suite).")
  in
  let reconnect_t =
    Arg.(
      value & flag
      & info [ "reconnect" ]
          ~doc:
            "Resume requests whose stream died without a terminal \
             response by resending the same id after a short backoff — \
             rides out supervised daemon restarts; broken streams then \
             count as reconnects, not errors.")
  in
  let max_attempts_t =
    Arg.(
      value
      & opt (bounded_int_arg ~what:"max-attempts" ~min_v:1) 10
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:"Sends per request under $(b,--reconnect) (default 10).")
  in
  let run socket clients concurrency tenants zipf seed seeds_per_benchmark
      algo pool platform benchmarks wait reconnect max_attempts =
    (match Sclient.ping ~retry_for:wait socket with
    | Stdlib.Ok () -> ()
    | Stdlib.Error failure ->
        Printf.eprintf "funcy loadgen: no daemon on %s: %s\n" socket
          (Sclient.failure_to_string failure);
        exit 1);
    let config =
      {
        Ft_serve.Loadgen.socket_path = socket;
        clients;
        concurrency;
        tenants;
        zipf_s = zipf;
        seed;
        benchmarks;
        seeds_per_benchmark;
        algorithm = algo;
        platform = Platform.short_name platform;
        pool;
        reconnect;
        max_attempts;
      }
    in
    let outcome = Ft_serve.Loadgen.run config in
    print_string (Ft_serve.Loadgen.render outcome);
    if not (Ft_serve.Loadgen.passed outcome) then exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Flood a running daemon with synthetic clients under zipfian \
          program popularity, report throughput, latency percentiles \
          and the coalescing mix, and verify that every coalesced \
          result is byte-identical.  Exits non-zero on any protocol \
          error or divergent result.")
    Term.(
      const run $ socket_t $ clients_t $ concurrency_t $ tenants_t $ zipf_t
      $ seed_t $ seeds_per_benchmark_t $ algo_t $ lg_pool_t $ platform_t
      $ benchmarks_t $ wait_t $ reconnect_t $ max_attempts_t)

let () =
  let doc = "FuncyTuner: per-loop compilation auto-tuning (ICPP'19 reproduction)" in
  let info = Cmd.info "funcy" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; profile_cmd; decisions_cmd; tune_cmd; selfcheck_cmd;
            experiment_cmd; report_cmd; serve_cmd; client_cmd; loadgen_cmd;
          ]))
