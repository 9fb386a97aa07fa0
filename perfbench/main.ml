(* perfbench: the funcytuner performance benchmark (see README.md).

     main.exe --workload W --seed N --seconds S --trace 0|1 [--smoke]
       one run of one workload; the last stdout line is the result JSON.
       --smoke is the harness's self-check (the runtest rule in dune):
       tiny workloads, no progress notes, exit 1 unless correct
     main.exe suite --seeds N --out FILE
       every workload over seeds 1..N for BENCHMARK.json's run_seconds,
       plus one traced run each, written as a funcytuner/bench/2 snapshot
     main.exe compare A.json B.json
       B against A under BENCHMARK.json's bounds; exits 1 on a regression

   Run from the repository root, where BENCHMARK.json is. *)

module Json = Ft_obs.Json
module B = Benchfile

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--smoke]\n\
    \       main.exe suite --seeds N --out FILE\n\
    \       main.exe compare A.json B.json";
  exit 2

type run = { workload : string; seed : int; seconds : float; trace : bool; smoke : bool }

(* A progress note on stderr; a smoke run passes silently. *)
let note run fmt = if run.smoke then Printf.ifprintf stderr fmt else Printf.eprintf fmt

type result = {
  attempted : int;
  failed : int;
  values : (string * float) list;
  spans : Spans.span list;
}

(* In a child: work inside [dir], so each child has its own checkpoints. *)
let in_dir dir f =
  Proc.mkdir_p dir;
  Sys.chdir dir;
  f ()

let micro run =
  Proc.in_child (fun () -> in_dir "micro" (fun () -> Micro.run ~seed:run.seed ~quick:run.smoke))

(* Set-up is timed three times, each in a fresh process: twice alone, once
   before the timed passes. *)
let run_tune kind run =
  let size = if run.smoke then Tune.smoke else Tune.full in
  let setup_samples =
    if run.trace then []
    else
      List.init 2 (fun i ->
          Proc.in_child (fun () ->
              in_dir (Printf.sprintf "setup%d" i) (fun () ->
                  Tune.setup_only kind ~size ~seed:run.seed)))
  in
  let m =
    Proc.in_child (fun () ->
        in_dir "main" (fun () ->
            Tune.measure kind ~size ~seed:run.seed ~seconds:run.seconds ~trace:run.trace))
  in
  note run "perfbench: slowdown %.4f, pass seconds:%s\n%!"
    (Calib.slowdown m.Tune.calib)
    (String.concat "" (List.map (fun p -> Printf.sprintf " %.4f" p.Tune.wall_s) m.Tune.timed));
  {
    attempted = m.Tune.checked;
    failed = m.Tune.mismatches;
    values =
      (if run.trace then Metrics.tune_layers m @ micro run
       else Metrics.tune_end_to_end ~setup_samples m);
    spans = m.Tune.spans;
  }

let run_serve run =
  let size = if run.smoke then Serve_load.smoke else Serve_load.full in
  let m =
    Proc.in_child (fun () ->
        in_dir "main" (fun () ->
            Serve_load.measure ~size ~seed:run.seed ~seconds:run.seconds ~trace:run.trace))
  in
  note run "perfbench: slowdown %.4f\n%!" (Calib.slowdown m.Serve_load.calib);
  List.iter
    (fun (r : Serve_load.rep) ->
      let o = r.Serve_load.outcome in
      note run
        "perfbench: repetition set-up %.4f s, load %.4f s, %.1f req/s, p50 %.4f ms, p90 %.4f ms, %d fresh, %d jobs\n%!"
        r.Serve_load.setup_s o.Ft_serve.Loadgen.wall_s o.Ft_serve.Loadgen.throughput
        (1000.0 *. o.Ft_serve.Loadgen.latency_p50) (1000.0 *. o.Ft_serve.Loadgen.latency_p90)
        o.Ft_serve.Loadgen.fresh r.Serve_load.load_jobs)
    m.Serve_load.timed;
  let reps = m.Serve_load.timed @ m.Serve_load.traced in
  (* A request fails by erroring, being refused or diverging. *)
  let lost (r : Serve_load.rep) =
    let o = r.Serve_load.outcome in
    size.Serve_load.clients - o.Ft_serve.Loadgen.completed + o.Ft_serve.Loadgen.inconsistent
  in
  {
    attempted = List.length reps * (size.Serve_load.clients + Serve_load.hottest);
    failed = List.fold_left (fun acc r -> acc + lost r) m.Serve_load.mismatches reps;
    values =
      (if run.trace then Metrics.serve_layers m @ micro run else Metrics.serve_end_to_end m);
    spans = m.Serve_load.spans;
  }

(* Scratch files live under the working directory, in a per-run
   directory removed at the end; sockets use paths relative to it. *)
let scratch_root = ".perfbench"

let measure run =
  let dir = Filename.concat scratch_root (Printf.sprintf "%s-%d" run.workload (Unix.getpid ())) in
  Proc.mkdir_p dir;
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () ->
      Sys.chdir cwd;
      Proc.remove_tree dir)
  @@ fun () ->
  match run.workload with
  | "tune-cold" -> run_tune Tune.Cold run
  | "tune-resume" -> run_tune Tune.Resume run
  | "tune-forked" -> run_tune Tune.Forked run
  | "serve-zipf" -> run_serve run
  | w -> B.fail "workload %s is in BENCHMARK.json but not in the harness" w

(* The result line, metrics in BENCHMARK.json's order.  A metric missing
   from the run, left over, or not finite is a harness bug. *)
let result_json (bench : B.t) run r =
  let wanted = if run.trace then bench.B.per_layer else bench.B.end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (m : B.metric) -> m.B.name = name) wanted) then
        B.fail "metric %s is not in BENCHMARK.json" name)
    r.values;
  let metrics =
    List.map
      (fun (m : B.metric) ->
        match List.assoc_opt m.B.name r.values with
        | Some v when Float.is_finite v ->
            (m.B.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.B.unit_) ])
        | Some v -> B.fail "metric %s is not finite (%g)" m.B.name v
        | None -> B.fail "metric %s was not measured" m.B.name)
      wanted
  in
  Json.Obj
    [
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.Obj metrics);
    ]

let write_spans run spans =
  if spans <> [] then begin
    let path =
      Filename.concat scratch_root (Printf.sprintf "spans-%s-seed%d.jsonl" run.workload run.seed)
    in
    Spans.write_jsonl path spans;
    note run "perfbench: spans in %s; self time per span name:\n" path;
    Hashtbl.iter (fun name s -> note run "  %-18s %10.3f s\n" name s) (Spans.self_times spans)
  end

let main_run args =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None
  and smoke = ref false in
  let int s = match int_of_string_opt s with Some n -> Some n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: n :: rest -> seed := int n; go rest
    | "--seconds" :: n :: rest -> seconds := int n; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | "--smoke" :: rest -> smoke := true; go rest
    | _ -> usage ()
  in
  go args;
  let bench = B.load () in
  let run =
    match (!workload, !seed, !seconds, !trace) with
    | Some workload, Some seed, Some seconds, Some trace when seconds >= 1 ->
        if not (List.mem workload bench.B.workloads) then begin
          prerr_endline
            ("perfbench: unknown workload " ^ workload ^ " (known: "
            ^ String.concat ", " bench.B.workloads ^ ")");
          exit 2
        end;
        { workload; seed; seconds = float_of_int seconds; trace; smoke = !smoke }
    | _ -> usage ()
  in
  match measure run with
  | r ->
      write_spans run r.spans;
      print_endline (Json.to_string (result_json bench run r));
      if run.smoke && r.failed > 0 then B.fail "%d of %d operations failed" r.failed r.attempted
  | exception Failure msg -> B.fail "%s" msg

let () =
  Ft_shard.Shard.install ();
  match List.tl (Array.to_list Sys.argv) with
  | "suite" :: args -> Suite.main args
  | "compare" :: args -> Suite.compare args
  | args -> main_run args
