(* The benchmark harness: regenerates every table and figure of the paper
   (run with no arguments for all of them, or name experiments:
   tab1 tab2 fig1 fig5a fig5b fig5c fig6 fig7a fig7b fig8 fig9 tab3
   ablations adaptive faults micro engine).

   Flags (anywhere on the command line):
     --jobs N | -j N   size of the evaluation-engine worker pool
                       (default 1 = sequential; results are bit-identical
                       for any value)
     --backend NAME    evaluation substrate: domains (default) or
                       processes (forked workers; crash-isolated, same
                       results)
     --stats           print engine telemetry at exit
     --faults          arm the deterministic fault model for the lab engine
     --fault-rate R    overall injected fault rate in [0,1] (default 0.1)
     --fault-seed N    fault-schedule seed (default 1)
     --timeout S       simulated per-run wall-clock budget in seconds
     --repeats N       measurements per configuration (robust aggregation)
     --retries N       retry budget for transient faults (default 2)
     --checkpoint P    snapshot the cache/quarantine to P; resume if P exists
     --json            instead of experiments, take a machine-readable
                       performance snapshot (solo-tune wall/evals-per-sec/
                       cache hit rate + a loadgen burst against a forked
                       daemon) and write it to BENCH_<rev>.json

   Absolute speedups come from the simulated tool-chain, so they are not
   expected to equal the paper's testbed numbers; the shapes (who wins,
   roughly by how much, where greedy fails) are the reproduction target —
   EXPERIMENTS.md records the side-by-side comparison.

   "micro" runs Bechamel micro-benchmarks of the framework machinery (one
   Test.make per core operation); "engine" exercises the parallel
   evaluation engine (determinism, cache reuse, sequential-vs-parallel
   wall clock). *)

open Ft_experiments
module Table = Ft_util.Table

let jobs = ref 1
let backend = ref Ft_engine.Backend.default
let stats = ref false
let faults = ref false
let fault_rate = ref 0.1
let fault_seed = ref 1
let timeout = ref None
let repeats = ref 1
let retries = ref 2
let checkpoint = ref None
let cache_format = ref Ft_engine.Cache.default_format
let gate_path = ref None
let gate_min_ratio = ref 0.9
let gate_latency_slack = ref 3.0
let gate_hit_slack = ref 0.05

let policy () =
  let base = Ft_engine.Engine.default_policy in
  {
    base with
    Ft_engine.Engine.faults =
      (if !faults then
         Some (Ft_fault.Fault.make ~seed:!fault_seed ~rate:!fault_rate ())
       else None);
    timeout_s = Option.value ~default:base.Ft_engine.Engine.timeout_s !timeout;
    max_retries = !retries;
    repeats = !repeats;
  }

(* One engine for the whole lab; with --checkpoint it resumes from (and
   periodically snapshots to) the given path. *)
let make_engine () =
  let open Ft_engine in
  match !checkpoint with
  | None -> Engine.create ~jobs:!jobs ~backend:!backend ~policy:(policy ()) ()
  | Some path ->
      let ck = Checkpoint.create ~path ~format:!cache_format () in
      let cache, quarantine =
        match if Checkpoint.exists ck then Checkpoint.load ck else None with
        | Some (cache, quarantine) ->
            Printf.eprintf
              "bench: resuming from %s (%d cached summaries, %d quarantined)\n%!"
              path (Cache.length cache)
              (Quarantine.length quarantine);
            (cache, quarantine)
        | None -> (Cache.create (), Quarantine.create ())
      in
      Engine.create ~jobs:!jobs ~backend:!backend ~cache ~quarantine
        ~policy:(policy ()) ~checkpoint:ck ()

let lab = lazy (Lab.create ~engine:(make_engine ()) ())

let banner name description =
  Printf.printf "\n=== %s — %s ===\n%!" name description

let note fmt = Printf.printf (fmt ^^ "\n%!")

let run_tab1 () =
  banner "tab1" "Table 1: benchmark list";
  Table.print (Ft_suite.Suite.table1 ())

let run_tab2 () =
  banner "tab2" "Table 2: platforms and inputs";
  Table.print (Ft_suite.Suite.table2 ())

let run_fig1 () =
  banner "fig1" "Combined Elimination vs O3 (paper: no significant gain)";
  Series.print (Fig1.run (Lazy.force lab))

let run_fig5 panel =
  let platform, tag =
    match panel with
    | `A -> (Ft_prog.Platform.Opteron, "fig5a")
    | `B -> (Ft_prog.Platform.Sandy_bridge, "fig5b")
    | `C -> (Ft_prog.Platform.Broadwell, "fig5c")
  in
  banner tag
    "Random / G.realized / FR / CFR / G.Independent vs O3 (paper GM: CFR \
     +9.2/+10.3/+9.4%)";
  Series.print (Fig5.panel (Lazy.force lab) platform)

let run_fig6 () =
  banner "fig6"
    "State of the art on Broadwell (paper GM: OpenTuner +4.9%, COBAYN \
     static +4.6%, dynamic <1.0, PGO marginal, CFR +9.4%)";
  let l = Lazy.force lab in
  Series.print (Fig6.run l);
  List.iter
    (fun (p : Ft_prog.Program.t) ->
      let pgo = Lab.pgo l p in
      match pgo.Ft_baselines.Pgo_driver.diagnostic with
      | Some msg -> note "  note: %s" msg
      | None -> ())
    Ft_suite.Suite.all

let run_fig7 small =
  let tag = if small then "fig7a" else "fig7b" in
  banner tag
    "Generalization to different work-set sizes (paper GM: CFR +12.3% \
     small / +10.7% large)";
  Series.print (Fig7.panel (Lazy.force lab) ~small)

let run_fig8 () =
  banner "fig8" "Cloverleaf time-step scaling (paper: CFR benefit stable)";
  Series.print (Fig8.run (Lazy.force lab))

let run_fig9 () =
  banner "fig9"
    "Per-loop speedups, top-5 Cloverleaf kernels (paper: 256-bit loses on \
     cell3/cell7; scalar wins dt/mom9; acc wants 256)";
  Series.print (Casestudy.fig9 (Lazy.force lab))

let run_tab3 () =
  banner "tab3" "Decision matrix for the Cloverleaf kernels";
  Table.print (Casestudy.table3 (Lazy.force lab))

let run_ablations () =
  banner "ablations"
    "top-X sweep, convergence, adaptive budget, elimination variants, \
     critical flags";
  let l = Lazy.force lab in
  Series.print (Ablations.top_x_sweep l);
  Table.print (Ablations.convergence l);
  Table.print (Ablations.adaptive_budget l);
  Series.print (Ablations.elimination_variants l);
  Table.print (Ablations.critical_flags_table l)

let run_faults () =
  banner "faults"
    "search quality vs injected fault rate (retries, quarantine, best \
     valid CV)";
  Series.print
    (Faults.run
       ~telemetry:(Lab.telemetry (Lazy.force lab))
       ~fault_seed:!fault_seed ~seed:42 ~pool_size:1000 ~jobs:!jobs ())

(* --- Bechamel micro-benchmarks -------------------------------------- *)

let micro_tests () =
  let open Bechamel in
  let toolchain = Ft_machine.Toolchain.make Ft_prog.Platform.Broadwell in
  let program = Option.get (Ft_suite.Suite.find "Cloverleaf") in
  let input = Ft_suite.Suite.tuning_input Ft_prog.Platform.Broadwell program in
  let rng = Ft_util.Rng.create 7 in
  let cv = Ft_flags.Space.sample rng in
  let binary = Ft_machine.Toolchain.compile_uniform toolchain ~cv program in
  let pool = Ft_flags.Space.sample_pool rng 100 in
  let samples =
    List.init 200 (fun _ ->
        Option.get (Ft_flags.Cv.to_bits (Ft_flags.Space.sample_binary rng)))
  in
  Test.make_grouped ~name:"funcytuner"
    [
      Test.make ~name:"cv_sample"
        (Staged.stage (fun () -> ignore (Ft_flags.Space.sample rng)));
      Test.make ~name:"compile_program"
        (Staged.stage (fun () ->
             ignore
               (Ft_machine.Toolchain.compile_uniform toolchain ~cv program)));
      Test.make ~name:"evaluate_binary"
        (Staged.stage (fun () ->
             ignore
               (Ft_machine.Exec.evaluate
                  ~arch:toolchain.Ft_machine.Toolchain.arch ~input binary)));
      Test.make ~name:"measure_binary"
        (Staged.stage (fun () ->
             ignore
               (Ft_machine.Exec.measure
                  ~arch:toolchain.Ft_machine.Toolchain.arch ~input ~rng binary)));
      Test.make ~name:"top_k_prune"
        (Staged.stage (fun () ->
             let costs =
               Array.init 1000 (fun i -> float_of_int (i * 7919 mod 997))
             in
             ignore (Ft_util.Stats.top_k_indices 20 costs)));
      Test.make ~name:"crossover"
        (Staged.stage (fun () ->
             ignore (Ft_flags.Space.crossover rng pool.(3) pool.(7))));
      Test.make ~name:"chow_liu_fit"
        (Staged.stage (fun () ->
             ignore (Ft_cobayn.Chow_liu.fit ~dims:Ft_flags.Flag.count samples)));
    ]

let run_micro () =
  banner "micro" "Bechamel micro-benchmarks of the framework machinery";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 256) ()
  in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let table =
    Table.create ~title:"Micro-benchmarks (monotonic clock)"
      [ "benchmark"; "ns/run" ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some [ e ] -> Printf.sprintf "%.0f" e
        | _ -> "n/a"
      in
      rows := (name, estimate) :: !rows)
    results;
  List.iter
    (fun (name, estimate) -> Table.add_row table [ name; estimate ])
    (List.sort compare !rows);
  Table.print table

(* --- evaluation-engine exercise -------------------------------------- *)

let run_engine () =
  banner "engine"
    "parallel evaluation engine: determinism, cache reuse, wall clock";
  let program = Option.get (Ft_suite.Suite.find "363.swim") in
  let platform = Ft_prog.Platform.Broadwell in
  let input = Ft_suite.Suite.tuning_input platform program in
  let collect jobs =
    let session =
      Funcytuner.Tuner.make_session ~pool_size:300 ~jobs ~platform ~program
        ~input ~seed:42 ()
    in
    let t0 = Ft_util.Clock.now () in
    let c = Lazy.force session.Funcytuner.Tuner.collection in
    let elapsed = Ft_util.Clock.now () -. t0 in
    (session, c, elapsed)
  in
  let parallel_jobs = max 4 !jobs in
  let _, seq, seq_s = collect 1 in
  let par_session, par, par_s = collect parallel_jobs in
  note "collection (K=300, swim/bdw): sequential %.3f s, %d workers %.3f s \
        (%.2fx)"
    seq_s parallel_jobs par_s (seq_s /. par_s);
  let identical =
    seq.Funcytuner.Collection.times = par.Funcytuner.Collection.times
    && seq.Funcytuner.Collection.totals = par.Funcytuner.Collection.totals
  in
  note "determinism: parallel matrix bit-identical to sequential = %b"
    identical;
  if not identical then failwith "engine determinism violated";
  (* CFR on the same session reuses the engine cache for every assignment
     it has already linked; a second CFR run is served entirely by it. *)
  let r1 = Funcytuner.Tuner.run_cfr ~top_x:10 par_session in
  let before =
    Ft_engine.Telemetry.snapshot
      (Funcytuner.Context.telemetry par_session.Funcytuner.Tuner.ctx)
  in
  let t0 = Ft_util.Clock.now () in
  let r2 = Funcytuner.Tuner.run_cfr ~top_x:10 par_session in
  let warm_s = Ft_util.Clock.now () -. t0 in
  let after =
    Ft_engine.Telemetry.snapshot
      (Funcytuner.Context.telemetry par_session.Funcytuner.Tuner.ctx)
  in
  note "CFR speedup %.3f; re-run from warm cache: %.3f s, +%d hits, +%d \
        misses, same result = %b"
    r1.Funcytuner.Result.speedup warm_s
    (after.Ft_engine.Telemetry.cache_hits
   - before.Ft_engine.Telemetry.cache_hits)
    (after.Ft_engine.Telemetry.cache_misses
   - before.Ft_engine.Telemetry.cache_misses)
    (r1.Funcytuner.Result.speedup = r2.Funcytuner.Result.speedup);
  print_string
    (Ft_engine.Telemetry.render
       (Funcytuner.Context.telemetry par_session.Funcytuner.Tuner.ctx))

(* --- bench --json: machine-readable performance snapshot -------------- *)

let json_out = ref false

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "dev"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "dev")

(* The daemon child is forked before any engine exists in this process
   (fork after spawning domains is undefined), runs a jobs=1 engine of
   its own, and exits when the parent's shutdown request drains it. *)
let fork_daemon ~socket_path =
  match Unix.fork () with
  | 0 ->
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Unix.dup2 devnull Unix.stdout;
      Unix.close devnull;
      let engine = Ft_engine.Engine.create ~jobs:1 ~policy:(policy ()) () in
      let runner = Ft_serve.Runner.make ~engine in
      ignore
        (Ft_serve.Server.serve
           ~telemetry:(Ft_engine.Engine.telemetry engine)
           (Ft_serve.Server.default_config ~socket_path)
           runner);
      Stdlib.exit 0
  | pid -> pid

(* --- perf regression gate ---------------------------------------------- *)

(* Compare this run's headline metrics against a committed seed snapshot
   (a BENCH_<rev>.json from an earlier revision).  Solo-tune throughput
   must reach [!gate_min_ratio] x the seed's; the cache hit rate may drop
   at most [!gate_hit_slack] absolute; loadgen p50/p99 latencies may grow
   at most [!gate_latency_slack] x.  Any violation exits 1, so CI fails
   the build on a perf regression. *)
let run_gate ~seed_path ~evals_per_sec ~hit_rate ~p50 ~p99 =
  let module Json = Ft_obs.Json in
  let contents =
    match
      let ic = open_in_bin seed_path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | s -> s
    | exception Sys_error msg ->
        Printf.eprintf "bench: cannot read gate seed: %s\n" msg;
        exit 1
  in
  let seed =
    match Json.of_string contents with
    | Ok j -> j
    | Error msg ->
        Printf.eprintf "bench: gate seed %s is not valid JSON: %s\n" seed_path
          msg;
        exit 1
  in
  let field obj name =
    match obj with Json.Obj fields -> List.assoc_opt name fields | _ -> None
  in
  let num section key =
    match Option.bind (field seed section) (fun sec -> field sec key) with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ ->
        Printf.eprintf "bench: gate seed %s lacks a numeric %s.%s\n" seed_path
          section key;
        exit 1
  in
  let seed_eps = num "tune" "evals_per_sec" in
  let seed_hit = num "tune" "cache_hit_rate" in
  let seed_p50 = num "loadgen" "latency_p50_s" in
  let seed_p99 = num "loadgen" "latency_p99_s" in
  note "gate: vs %s (min evals/s ratio %.2f, hit-rate slack %.2f, latency \
        slack %.1fx)"
    seed_path !gate_min_ratio !gate_hit_slack !gate_latency_slack;
  let failures = ref 0 in
  let check name ~ok ~current ~bound =
    if ok then note "gate: %-22s %12.4f  ok  (bound %.4f)" name current bound
    else begin
      incr failures;
      Printf.eprintf "bench: GATE FAIL %s: %.4f violates bound %.4f\n" name
        current bound
    end
  in
  check "evals_per_sec >="
    ~ok:(evals_per_sec >= !gate_min_ratio *. seed_eps)
    ~current:evals_per_sec
    ~bound:(!gate_min_ratio *. seed_eps);
  check "cache_hit_rate >="
    ~ok:(hit_rate >= seed_hit -. !gate_hit_slack)
    ~current:hit_rate
    ~bound:(seed_hit -. !gate_hit_slack);
  check "latency_p50_s <="
    ~ok:(p50 <= !gate_latency_slack *. seed_p50)
    ~current:p50
    ~bound:(!gate_latency_slack *. seed_p50);
  check "latency_p99_s <="
    ~ok:(p99 <= !gate_latency_slack *. seed_p99)
    ~current:p99
    ~bound:(!gate_latency_slack *. seed_p99);
  if !failures > 0 then begin
    Printf.eprintf "bench: perf gate FAILED (%d regression(s) vs %s)\n"
      !failures seed_path;
    exit 1
  end
  else note "gate: PASS (vs %s)" seed_path

let run_json_bench () =
  let module Json = Ft_obs.Json in
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "funcy-bench-%d.sock" (Unix.getpid ()))
  in
  let daemon = fork_daemon ~socket_path in
  let platform = Ft_prog.Platform.Broadwell in
  let program = Option.get (Ft_suite.Suite.find "363.swim") in
  let input = Ft_suite.Suite.tuning_input platform program in
  (* 1a. sharded tune: the forked pool at the node count.  Runs first —
     the sharded backend forks workers, which is illegal once this
     process has spawned a domain (the solo tune may, with --jobs). *)
  let shard_nodes = 4 in
  let shard_result, shard_wall =
    let engine =
      Ft_engine.Engine.create ~backend:Ft_engine.Backend.Sharded
        ~nodes:shard_nodes ~policy:(policy ()) ()
    in
    let t0 = Ft_util.Clock.now () in
    let session =
      Funcytuner.Tuner.make_session ~pool_size:150 ~engine ~platform ~program
        ~input ~seed:42 ()
    in
    let result = Funcytuner.Tuner.run_cfr session in
    (result, Ft_util.Clock.now () -. t0)
  in
  note "shard (swim/bdw cfr, K=150, %d nodes): %.3f s wall, %d evaluations \
        (%.0f/s)"
    shard_nodes shard_wall shard_result.Funcytuner.Result.evaluations
    (float_of_int shard_result.Funcytuner.Result.evaluations /. shard_wall);
  (* 1b. solo tune: wall clock, evaluation rate, cache hit rate *)
  let engine =
    Ft_engine.Engine.create ~jobs:!jobs ~backend:!backend ~policy:(policy ()) ()
  in
  let t0 = Ft_util.Clock.now () in
  let session =
    Funcytuner.Tuner.make_session ~pool_size:300 ~engine ~platform ~program
      ~input ~seed:42 ()
  in
  let result = Funcytuner.Tuner.run_cfr session in
  let tune_wall = Ft_util.Clock.now () -. t0 in
  let snap = Ft_engine.Telemetry.snapshot (Ft_engine.Engine.telemetry engine) in
  let lookups =
    snap.Ft_engine.Telemetry.cache_hits + snap.Ft_engine.Telemetry.cache_misses
  in
  let hit_rate =
    if lookups = 0 then 0.0
    else float_of_int snap.Ft_engine.Telemetry.cache_hits /. float_of_int lookups
  in
  note "tune (swim/bdw cfr, K=300): %.3f s wall, %d evaluations (%.0f/s), \
        cache hit rate %.1f%%"
    tune_wall result.Funcytuner.Result.evaluations
    (float_of_int result.Funcytuner.Result.evaluations /. tune_wall)
    (100.0 *. hit_rate);
  (* 2. loadgen burst against the forked daemon *)
  (match Ft_serve.Client.ping ~retry_for:10.0 socket_path with
  | Ok () -> ()
  | Error f ->
      Printf.eprintf "bench: daemon never came up: %s\n"
        (Ft_serve.Client.failure_to_string f);
      exit 1);
  let lg = Ft_serve.Loadgen.run (Ft_serve.Loadgen.default_config ~socket_path) in
  print_string (Ft_serve.Loadgen.render lg);
  ignore (Ft_serve.Client.shutdown socket_path);
  ignore (Unix.waitpid [] daemon);
  if not (Ft_serve.Loadgen.passed lg) then begin
    Printf.eprintf "bench: loadgen reported protocol errors or divergence\n";
    exit 1
  end;
  let rev = git_rev () in
  let json =
    Json.Obj
      [
        ("schema", Json.String "funcytuner/bench/1");
        ("rev", Json.String rev);
        ("jobs", Json.Int !jobs);
        ( "tune",
          Json.Obj
            [
              ("benchmark", Json.String program.Ft_prog.Program.name);
              ("algorithm", Json.String "cfr");
              ("pool", Json.Int 300);
              ("wall_s", Json.Float tune_wall);
              ("evaluations", Json.Int result.Funcytuner.Result.evaluations);
              ( "evals_per_sec",
                Json.Float
                  (float_of_int result.Funcytuner.Result.evaluations
                  /. tune_wall) );
              ("cache_hit_rate", Json.Float hit_rate);
            ] );
        ( "shard",
          Json.Obj
            [
              ("benchmark", Json.String program.Ft_prog.Program.name);
              ("algorithm", Json.String "cfr");
              ("pool", Json.Int 150);
              ("nodes", Json.Int shard_nodes);
              ("wall_s", Json.Float shard_wall);
              ( "evaluations",
                Json.Int shard_result.Funcytuner.Result.evaluations );
              ( "evals_per_sec",
                Json.Float
                  (float_of_int shard_result.Funcytuner.Result.evaluations
                  /. shard_wall) );
            ] );
        ( "loadgen",
          Json.Obj
            [
              ("clients", Json.Int 200);
              ("concurrency", Json.Int 64);
              ("zipf_s", Json.Float 1.1);
              ("completed", Json.Int lg.Ft_serve.Loadgen.completed);
              ("fresh", Json.Int lg.Ft_serve.Loadgen.fresh);
              ("coalesced", Json.Int lg.Ft_serve.Loadgen.coalesced);
              ("cached", Json.Int lg.Ft_serve.Loadgen.cached);
              ("rejected", Json.Int lg.Ft_serve.Loadgen.rejected);
              ("errors", Json.Int lg.Ft_serve.Loadgen.errors);
              ("coalesce_rate", Json.Float lg.Ft_serve.Loadgen.coalesce_rate);
              ("wall_s", Json.Float lg.Ft_serve.Loadgen.wall_s);
              ("throughput_rps", Json.Float lg.Ft_serve.Loadgen.throughput);
              ("latency_p50_s", Json.Float lg.Ft_serve.Loadgen.latency_p50);
              ("latency_p90_s", Json.Float lg.Ft_serve.Loadgen.latency_p90);
              ("latency_p99_s", Json.Float lg.Ft_serve.Loadgen.latency_p99);
              ("latency_max_s", Json.Float lg.Ft_serve.Loadgen.latency_max);
            ] );
      ]
  in
  let path = Printf.sprintf "BENCH_%s.json" rev in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  note "wrote %s" path;
  match !gate_path with
  | None -> ()
  | Some seed_path ->
      run_gate ~seed_path
        ~evals_per_sec:
          (float_of_int result.Funcytuner.Result.evaluations /. tune_wall)
        ~hit_rate ~p50:lg.Ft_serve.Loadgen.latency_p50
        ~p99:lg.Ft_serve.Loadgen.latency_p99

(* --- adaptive: quality-vs-budget curves ------------------------------- *)

(* Merge the curves into BENCH_<rev>.json under the "adaptive" key so the
   snapshot taken by --json (which owns the file's other sections) and
   this experiment compose in either order. *)
let write_adaptive_json curves =
  let module Json = Ft_obs.Json in
  let rev = git_rev () in
  let path = Printf.sprintf "BENCH_%s.json" rev in
  let read_file p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let existing =
    if Sys.file_exists path then
      match Json.of_string (read_file path) with
      | Ok (Json.Obj fields) -> List.remove_assoc "adaptive" fields
      | Ok _ | Error _ -> []
    else []
  in
  let base =
    if existing = [] then
      [
        ("schema", Json.String "funcytuner/bench/1");
        ("rev", Json.String rev);
      ]
    else existing
  in
  let curve_json (c : Ablations.quality_curve) =
    Json.Obj
      [
        ("benchmark", Json.String c.Ablations.benchmark);
        ( "cfr",
          Json.Obj
            [
              ("speedup", Json.Float c.Ablations.cfr_speedup);
              ("evaluations", Json.Int c.Ablations.cfr_evaluations);
            ] );
        ( "curve",
          Json.List
            (List.map
               (fun (pt : Ablations.budget_point) ->
                 Json.Obj
                   [
                     ("budget", Json.Int pt.Ablations.budget);
                     ("evaluations", Json.Int pt.Ablations.evaluations);
                     ("speedup", Json.Float pt.Ablations.speedup);
                   ])
               c.Ablations.points) );
      ]
  in
  let json =
    Json.Obj (base @ [ ("adaptive", Json.List (List.map curve_json curves)) ])
  in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  note "wrote quality-vs-budget curves to %s" path

let run_adaptive () =
  banner "adaptive"
    "successive-halving CFR at K/16..K/2 measurement budgets vs full CFR";
  let curves = Ablations.quality_vs_budget (Lazy.force lab) in
  Table.print (Ablations.quality_vs_budget_table curves);
  write_adaptive_json curves

let experiments =
  [
    ("tab1", run_tab1);
    ("tab2", run_tab2);
    ("fig1", run_fig1);
    ("fig5a", fun () -> run_fig5 `A);
    ("fig5b", fun () -> run_fig5 `B);
    ("fig5c", fun () -> run_fig5 `C);
    ("fig6", run_fig6);
    ("fig7a", fun () -> run_fig7 true);
    ("fig7b", fun () -> run_fig7 false);
    ("fig8", run_fig8);
    ("fig9", run_fig9);
    ("tab3", run_tab3);
    ("ablations", run_ablations);
    ("adaptive", run_adaptive);
    ("faults", run_faults);
    ("micro", run_micro);
    ("engine", run_engine);
  ]

(* "engine" benchmarks the engine itself on its own sessions and "faults"
   sweeps fault rates on per-rate engines, so running every experiment
   does not include them by default. *)
let default_experiments =
  List.filter
    (fun (name, _) -> name <> "engine" && name <> "faults")
    experiments

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 2)
    fmt

let int_flag ~flag ~min_v cell s =
  match int_of_string_opt s with
  | Some n when n >= min_v -> cell := n
  | _ -> usage_error "%s expects an integer >= %d, got '%s'" flag min_v s

let set_jobs = int_flag ~flag:"--jobs" ~min_v:1 jobs

let set_backend s =
  match Ft_engine.Backend.of_name s with
  | Some b -> backend := b
  | None -> usage_error "--backend expects 'domains' or 'processes', got '%s'" s

let set_fault_rate s =
  match float_of_string_opt s with
  | Some r when r >= 0.0 && r <= 1.0 -> fault_rate := r
  | _ -> usage_error "--fault-rate expects a float in [0,1], got '%s'" s

let set_timeout s =
  match float_of_string_opt s with
  | Some t when t > 0.0 -> timeout := Some t
  | _ -> usage_error "--timeout expects a positive float, got '%s'" s

let set_cache_format s =
  match Ft_engine.Cache.format_of_string s with
  | Some f -> cache_format := f
  | None -> usage_error "--cache-format expects 'text' or 'binary', got '%s'" s

let float_flag ~flag ~min_v cell s =
  match float_of_string_opt s with
  | Some f when f >= min_v -> cell := f
  | _ -> usage_error "%s expects a float >= %g, got '%s'" flag min_v s

let parse_args argv =
  let rec go names = function
    | [] -> List.rev names
    | "--stats" :: rest ->
        stats := true;
        go names rest
    | "--faults" :: rest ->
        faults := true;
        go names rest
    | "--json" :: rest ->
        json_out := true;
        go names rest
    | ("--jobs" | "-j") :: n :: rest ->
        set_jobs n;
        go names rest
    | "--backend" :: b :: rest ->
        set_backend b;
        go names rest
    | "--fault-rate" :: r :: rest ->
        set_fault_rate r;
        go names rest
    | "--fault-seed" :: n :: rest ->
        int_flag ~flag:"--fault-seed" ~min_v:0 fault_seed n;
        go names rest
    | "--timeout" :: s :: rest ->
        set_timeout s;
        go names rest
    | "--repeats" :: n :: rest ->
        int_flag ~flag:"--repeats" ~min_v:1 repeats n;
        go names rest
    | "--retries" :: n :: rest ->
        int_flag ~flag:"--retries" ~min_v:0 retries n;
        go names rest
    | "--checkpoint" :: path :: rest ->
        checkpoint := Some path;
        go names rest
    | "--cache-format" :: f :: rest ->
        set_cache_format f;
        go names rest
    | "--gate" :: path :: rest ->
        gate_path := Some path;
        go names rest
    | "--gate-min-ratio" :: r :: rest ->
        float_flag ~flag:"--gate-min-ratio" ~min_v:0.0 gate_min_ratio r;
        go names rest
    | "--gate-latency-slack" :: r :: rest ->
        float_flag ~flag:"--gate-latency-slack" ~min_v:1.0 gate_latency_slack r;
        go names rest
    | "--gate-hit-slack" :: r :: rest ->
        float_flag ~flag:"--gate-hit-slack" ~min_v:0.0 gate_hit_slack r;
        go names rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs="
      ->
        set_jobs (String.sub arg 7 (String.length arg - 7));
        go names rest
    | ("--fault-rate" | "--fault-seed" | "--timeout" | "--repeats"
      | "--retries" | "--checkpoint" | "--cache-format" | "--gate"
      | "--gate-min-ratio" | "--gate-latency-slack" | "--gate-hit-slack"
      | "--jobs" | "-j" | "--backend") :: [] ->
        usage_error "missing value for the last flag"
    | name :: rest -> go (name :: names) rest
  in
  go [] (List.tl (Array.to_list argv))

let () =
  let names = parse_args Sys.argv in
  if !json_out then begin
    if names <> [] then
      usage_error "--json takes no experiment names (it is its own suite)";
    run_json_bench ();
    exit 0
  end;
  let requested =
    match names with [] -> List.map fst default_experiments | names -> names in
  let t0 = Sys.time () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s (available: %s)\n" name
            (String.concat ", " (List.map fst experiments));
          exit 2)
    requested;
  if Lazy.is_val lab then
    Ft_engine.Engine.flush_checkpoint (Lab.engine (Lazy.force lab));
  if !stats then begin
    print_newline ();
    print_string (Ft_engine.Telemetry.render (Lab.telemetry (Lazy.force lab)))
  end;
  Printf.printf "\n(total harness CPU time: %.1f s)\n" (Sys.time () -. t0)
