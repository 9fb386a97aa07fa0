(* Turning what a run measured into named metric values.  Names and units
   are BENCHMARK.json's; [Main] checks that each list here matches it.

   End to end (untraced passes or repetitions): set-up time, engine
   evaluations per second, operations per second (tune sessions or served
   requests), the median and p90 latency of one operation, and peak RSS.
   Set-up time is the median of its samples.  The rest are best-of-N over
   a fixed number of repetitions ({!Proc.runs}): a tune spec's fastest
   session over the timed passes, and each serve-zipf figure at its own
   best over the repetitions (so two figures may come from two
   repetitions).  The repetitions do identical work, and other tenants of
   the machine only ever slow one down, so the best is the least disturbed
   sample; on a shared machine it is steadier across runs than a median or
   any one repetition's figures.  Every time and rate is then scaled to the
   reference machine speed ({!Calib}); peak RSS is not.

   Per layer (traced run): engine counts and time shares, search and
   checkpoint shares from the harness spans, the backend split, pool
   speed-up over the jobs-1 reference, tracing overhead, serve and
   scheduler shares, and the micro suite.  A layer a workload does not run
   reports 0. *)

module Stats = Ft_util.Stats
module Telemetry = Ft_engine.Telemetry
module Backend = Ft_engine.Backend

let median = Stats.median
let ms s = 1000.0 *. s
let ratio a b = if b = 0.0 then 0.0 else a /. b
let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let sumi f l = List.fold_left (fun acc x -> acc + f x) 0 l
let timer name (snap : Telemetry.snapshot) =
  Option.value ~default:0.0 (List.assoc_opt name snap.Telemetry.timers)

(* -- tune workloads ---------------------------------------------------- *)

let pass_rate f (p : Tune.pass) = f p /. p.Tune.wall_s
let pass_evals p = float_of_int (Tune.pass_jobs p)
let session_seconds passes =
  List.concat_map (fun (p : Tune.pass) -> List.map (fun s -> s.Tune.seconds) p.Tune.sessions) passes

(* Each spec's fastest session over the passes, in spec order. *)
let best_sessions passes =
  match passes with
  | [] -> invalid_arg "best_sessions: no passes"
  | (first : Tune.pass) :: rest ->
      List.fold_left
        (fun best (p : Tune.pass) ->
          List.map2 (fun b s -> if s.Tune.seconds < b.Tune.seconds then s else b) best p.Tune.sessions)
        first.Tune.sessions rest

(* [setup_samples]: the extra set-ups, each with its own calibration. *)
let tune_end_to_end ~setup_samples (m : Tune.measured) =
  let slowdown = Calib.slowdown m.Tune.calib in
  let best = best_sessions m.Tune.timed in
  let seconds = List.map (fun s -> s.Tune.seconds /. slowdown) best in
  let total = sumf Fun.id seconds in
  let setup = List.map (fun (s, c) -> s /. Calib.slowdown c) setup_samples in
  [
    ("setup_s", median ((m.Tune.setup_s /. slowdown) :: setup));
    ("evals_per_s", float_of_int (sumi (fun s -> s.Tune.jobs) best) /. total);
    ("ops_per_s", float_of_int (List.length best) /. total);
    ("op_p50_ms", ms (Stats.percentile 50.0 seconds));
    ("op_p90_ms", ms (Stats.percentile 90.0 seconds));
    ("peak_rss_mib", m.Tune.peak_rss_mb);
  ]

(* Evaluations per session-second on the sessions one backend ran. *)
let backend_rate backend passes =
  let sessions =
    List.concat_map
      (fun (p : Tune.pass) -> List.filter (fun s -> s.Tune.backend = backend) p.Tune.sessions)
      passes
  in
  ratio (float_of_int (sumi (fun s -> s.Tune.jobs) sessions)) (sumf (fun s -> s.Tune.seconds) sessions)

let tune_layers (m : Tune.measured) =
  let traced = m.Tune.traced in
  let per_pass f = median (List.map f traced) in
  let count f p = float_of_int (sumi (fun s -> f s.Tune.snap) p.Tune.sessions) in
  let share name (p : Tune.pass) =
    sumf (fun s -> timer name s.Tune.snap) p.Tune.sessions
    /. (p.Tune.wall_s *. float_of_int Tune.workers)
  in
  let self = Spans.self_times m.Tune.spans in
  let self_s name = Option.value ~default:0.0 (Hashtbl.find_opt self name) in
  let passes_s =
    sumf (fun (s : Spans.span) -> if s.Spans.name = "pass" then s.Spans.stop -. s.Spans.start else 0.0)
      m.Tune.spans
  in
  let self_frac names = ratio (sumf self_s names) passes_s in
  let reference = m.Tune.reference in
  let reference_rate = pass_rate pass_evals reference in
  let untraced_wall = median (List.map (fun (p : Tune.pass) -> p.Tune.wall_s) m.Tune.timed) in
  [
    ("engine.jobs", per_pass pass_evals);
    ("engine.builds", per_pass (fun p -> float_of_int (sumi (fun s -> s.Tune.added) p.Tune.sessions)));
    ( "engine.hit_rate",
      per_pass (fun p ->
          ratio
            (count (fun s -> s.Telemetry.cache_hits) p)
            (count (fun s -> s.Telemetry.cache_hits + s.Telemetry.cache_misses) p)) );
    ("engine.retries", per_pass (count (fun s -> s.Telemetry.retries)));
    ("engine.worker_crashes", per_pass (count (fun s -> s.Telemetry.worker_crashes)));
    ( "engine.minor_words_per_job",
      m.Tune.reference_minor_words /. pass_evals reference );
    ("engine.build_frac", per_pass (share "build"));
    ("engine.run_frac", per_pass (share "run"));
    ("search.profile_frac", self_frac [ "make_session" ]);
    ("search.collect_frac", self_frac [ "collect" ]);
    ("search.cfr_frac", self_frac [ "cfr"; "adaptive_sh" ]);
    ("search.run_ms_p50", ms (median (session_seconds traced)));
    ("checkpoint.load_frac", self_frac [ "checkpoint_load" ]);
    ("checkpoint.flush_frac", self_frac [ "checkpoint_flush" ]);
    ("backend.processes_evals_per_s", backend_rate Backend.Processes m.Tune.timed);
    ("backend.sharded_evals_per_s", backend_rate Backend.Sharded m.Tune.timed);
    ("pool.speedup", median (List.map (pass_rate pass_evals) m.Tune.timed) /. reference_rate);
    ( "trace.overhead_frac",
      median (List.map (fun (p : Tune.pass) -> p.Tune.wall_s) traced) /. untraced_wall -. 1.0 );
    ("serve.busy_frac", 0.0);
    ("serve.wait_frac", 0.0);
    ("scheduler.memo_frac", 0.0);
    ("scheduler.admitted", 0.0);
  ]

(* -- serve-zipf --------------------------------------------------------- *)

(* Engine evaluations of the timed load, per second of it. *)
let rep_evals_per_s (r : Serve_load.rep) =
  float_of_int r.Serve_load.load_jobs /. r.Serve_load.outcome.Ft_serve.Loadgen.wall_s

let serve_end_to_end (m : Serve_load.measured) =
  let slowdown = Calib.slowdown m.Serve_load.calib in
  let reps = m.Serve_load.timed in
  let highest f = List.fold_left (fun acc r -> Float.max acc (f r)) neg_infinity reps in
  let lowest f = List.fold_left (fun acc r -> Float.min acc (f r)) infinity reps in
  let outcome (r : Serve_load.rep) = r.Serve_load.outcome in
  [
    ( "setup_s",
      median (List.map (fun r -> r.Serve_load.setup_s) (reps @ m.Serve_load.traced))
      /. slowdown );
    ("evals_per_s", slowdown *. highest rep_evals_per_s);
    ("ops_per_s", slowdown *. highest (fun r -> (outcome r).Ft_serve.Loadgen.throughput));
    ("op_p50_ms", lowest (fun r -> ms (outcome r).Ft_serve.Loadgen.latency_p50) /. slowdown);
    ("op_p90_ms", lowest (fun r -> ms (outcome r).Ft_serve.Loadgen.latency_p90) /. slowdown);
    ("peak_rss_mib", median (List.map (fun r -> r.Serve_load.report.Serve_load.rss_mb) reps));
  ]

let serve_layers (m : Serve_load.measured) =
  let traced = m.Serve_load.traced in
  let per_rep f = median (List.map f traced) in
  let report (r : Serve_load.rep) = r.Serve_load.report in
  let snap r = (report r).Serve_load.snap in
  let count f r = float_of_int (f (snap r)) in
  let lifetime r = (report r).Serve_load.busy_s +. (report r).Serve_load.wait_s in
  let share name r = ratio (timer name (snap r)) (lifetime r) in
  let stat name r = float_of_int (Option.value ~default:0 (List.assoc_opt name r.Serve_load.stats)) in
  let wall r = r.Serve_load.outcome.Ft_serve.Loadgen.wall_s in
  let group_runs = List.concat_map (fun r -> (report r).Serve_load.group_runs) traced in
  [
    ("engine.jobs", per_rep (fun r -> float_of_int (sumi (fun s -> s.Serve_load.jobs) (report r).Serve_load.searches)));
    ("engine.builds", per_rep (count (fun s -> s.Telemetry.builds)));
    ( "engine.hit_rate",
      per_rep (fun r ->
          let s = snap r in
          ratio (float_of_int s.Telemetry.cache_hits)
            (float_of_int (s.Telemetry.cache_hits + s.Telemetry.cache_misses))) );
    ("engine.retries", per_rep (count (fun s -> s.Telemetry.retries)));
    ("engine.worker_crashes", per_rep (count (fun s -> s.Telemetry.worker_crashes)));
    ( "engine.minor_words_per_job",
      m.Serve_load.solo_minor_words /. float_of_int m.Serve_load.solo_jobs );
    ("engine.build_frac", per_rep (share "build"));
    ("engine.run_frac", per_rep (share "run"));
    ("search.profile_frac", 0.0);
    ("search.collect_frac", per_rep (share "collect"));
    ("search.cfr_frac", per_rep (share "adaptive-sh"));
    ("search.run_ms_p50", ms (median group_runs));
    ("checkpoint.load_frac", 0.0);
    ("checkpoint.flush_frac", 0.0);
    ("backend.processes_evals_per_s", 0.0);
    ("backend.sharded_evals_per_s", 0.0);
    (* The daemon runs jobs 1: no pool. *)
    ("pool.speedup", 0.0);
    ( "trace.overhead_frac",
      median (List.map wall traced) /. median (List.map wall m.Serve_load.timed) -. 1.0 );
    ("serve.busy_frac", per_rep (fun r -> ratio (report r).Serve_load.busy_s (lifetime r)));
    ("serve.wait_frac", per_rep (fun r -> ratio (report r).Serve_load.wait_s (lifetime r)));
    ("scheduler.memo_frac", per_rep (fun r -> ratio (stat "memoized" r) (stat "received" r)));
    ("scheduler.admitted", per_rep (stat "admitted"));
  ]
