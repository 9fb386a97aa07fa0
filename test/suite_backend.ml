(* Tests for the process-isolated evaluation backends (DESIGN.md
   section 11): the Procpool crash taxonomy and its exact crash
   attribution, the Shard aliases over the same pool, the differential
   property that the processes AND sharded backends are byte-identical
   to the domains backend — results, logical traces and checkpoints, at
   any --jobs or --nodes, even while workers are being SIGKILLed
   mid-batch — and QCheck crash-injection properties for the
   Atomic_file/Cache persistence layer the multi-process modes rest on. *)

open Ft_prog
module Backend = Ft_engine.Backend
module Procpool = Ft_engine.Procpool
module Atomic_file = Ft_engine.Atomic_file
module Cache = Ft_engine.Cache
module Quarantine = Ft_engine.Quarantine
module Engine = Ft_engine.Engine
module Telemetry = Ft_obs.Telemetry
module Exec = Ft_machine.Exec
module Trace = Ft_obs.Trace
module Export = Ft_obs.Export
module Tuner = Funcytuner.Tuner
module Rng = Ft_util.Rng
module Shard = Ft_shard.Shard

let swim = Option.get (Ft_suite.Suite.find "swim")
let platform = Platform.Broadwell
let toolchain = Ft_machine.Toolchain.make platform
let input = Ft_suite.Suite.tuning_input platform swim
let quiet_load path = Cache.load ~warn:(fun ~line:_ ~reason:_ -> ()) path

(* --- Backend naming ---------------------------------------------------- *)

let test_backend_names () =
  List.iter
    (fun b ->
      Alcotest.(check bool)
        ("of_name round-trips " ^ Backend.to_name b)
        true
        (Backend.of_name (Backend.to_name b) = Some b))
    Backend.all;
  Alcotest.(check bool) "garbage rejected" true
    (Backend.of_name "threads" = None);
  Alcotest.(check bool) "default is domains" true
    (Backend.default = Backend.Domains)

(* --- Procpool: the forked worker pool --------------------------------- *)

let ok_exn = function
  | Stdlib.Ok v -> v
  | Stdlib.Error f -> Alcotest.fail (Procpool.failure_to_string f)

let test_procpool_map_in_order () =
  (* Uneven per-item work, so a dynamic schedule reorders completions:
     results must still land by submission index, at any worker count. *)
  let items = Array.init 100 (fun i -> i) in
  let work i =
    let spins = if i mod 9 = 0 then 20000 else 100 in
    let acc = ref i in
    for _ = 1 to spins do
      acc := (!acc * 31) mod 65537
    done;
    (i, i * i)
  in
  List.iter
    (fun workers ->
      let results = Procpool.map ~workers work items in
      Alcotest.(check int) "all slots filled" 100 (Array.length results);
      Array.iteri
        (fun idx r ->
          let i, sq = ok_exn r in
          Alcotest.(check int) "submission order preserved" idx i;
          Alcotest.(check int) "value correct" (idx * idx) sq)
        results)
    [ 1; 4 ]

let test_procpool_raised_is_isolated () =
  (* A raising closure poisons only its own slot; the worker survives to
     take more jobs (no respawn needed, no sibling loss). *)
  let work i = if i mod 13 = 7 then failwith (string_of_int i) else i + 1 in
  let results = Procpool.map ~workers:3 work (Array.init 80 (fun i -> i)) in
  Array.iteri
    (fun i -> function
      | Stdlib.Ok v -> Alcotest.(check int) "healthy slot" (i + 1) v
      | Stdlib.Error (Procpool.Raised msg) ->
          Alcotest.(check int) "raising index only" 7 (i mod 13);
          Alcotest.(check bool) "original exception carried" true
            (Test_helpers.contains msg (string_of_int i))
      | Stdlib.Error (Procpool.Crashed c) ->
          Alcotest.fail ("raise escalated to crash: " ^ Procpool.crash_to_string c))
    results

let test_procpool_on_result_once_per_index () =
  let seen = ref [] in
  let results =
    Procpool.map ~workers:4
      ~on_result:(fun i r -> seen := (i, Stdlib.Result.is_ok r) :: !seen)
      (fun i -> i * 2)
      (Array.init 50 (fun i -> i))
  in
  Alcotest.(check int) "all results" 50 (Array.length results);
  let indices = List.sort compare (List.map fst !seen) in
  Alcotest.(check (list int))
    "on_result fired exactly once per index"
    (List.init 50 (fun i -> i))
    indices;
  Alcotest.(check bool) "all reported ok" true (List.for_all snd !seen)

(* The first worker to complete k jobs SIGKILLs itself from inside its
   next job — k = 0 on 60 items before it completes anything, k = 2 on
   30 items inside its first chunk, k = 70 on 400 items past it.  Each
   forked worker counts its own jobs from the parent's 0, and an O_EXCL
   token file lets only one of them fire.  Its in-flight job must
   surface as Crashed (with the signal named); every other job, its
   unanswered chunks included, must still complete on the respawned or
   surviving workers. *)
let test_procpool_kill_surfaces_as_crash () =
  List.iter
    (fun (k, n) ->
      let token = Test_helpers.temp_path "kill-token" ".tok" in
      let completed = ref 0 in
      let work i =
        (if !completed = k then
           match
             Unix.openfile token [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ]
               0o600
           with
           | fd ->
               Unix.close fd;
               Unix.kill (Unix.getpid ()) Sys.sigkill
           | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        incr completed;
        i * 3
      in
      let results =
        Fun.protect
          ~finally:(fun () -> Test_helpers.remove_if_exists token)
          (fun () -> Procpool.map ~workers:2 work (Array.init n Fun.id))
      in
      let crashed = ref 0 in
      Array.iteri
        (fun i -> function
          | Stdlib.Ok v -> Alcotest.(check int) "survivor correct" (i * 3) v
          | Stdlib.Error (Procpool.Crashed { detail; _ }) ->
              incr crashed;
              Alcotest.(check bool) "signal named in detail" true
                (Test_helpers.contains detail "SIGKILL")
          | Stdlib.Error (Procpool.Raised msg) ->
              Alcotest.fail ("kill surfaced as Raised: " ^ msg))
        results;
      Alcotest.(check int) "exactly the in-flight job is lost" 1 !crashed)
    [ (0, 60); (2, 30); (70, 400) ]

let test_procpool_rejects_bad_workers () =
  match Procpool.map ~workers:0 (fun i -> i) [| 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "workers=0 accepted"

(* --- Shard: the sharded aliases over the same pool ---------------------- *)

let test_shard_map_in_order () =
  (* Skewed per-item work concentrated in the first quarter, so the
     early chunks are slow and completion order depends on how the
     shrinking tail rebalances: results must still land by submission
     index, at any node count. *)
  let items = Array.init 100 (fun i -> i) in
  let work i =
    let spins = if i < 25 then 20000 else 100 in
    let acc = ref i in
    for _ = 1 to spins do
      acc := (!acc * 31) mod 65537
    done;
    (i, i * i)
  in
  List.iter
    (fun nodes ->
      let results = Shard.map ~nodes work items in
      Alcotest.(check int) "all slots filled" 100 (Array.length results);
      Array.iteri
        (fun idx r ->
          let i, sq = ok_exn r in
          Alcotest.(check int) "submission order preserved" idx i;
          Alcotest.(check int) "value correct" (idx * idx) sq)
        results)
    [ 1; 3; 4 ]

let test_shard_raised_is_isolated () =
  let work i = if i mod 13 = 7 then failwith (string_of_int i) else i + 1 in
  let results = Shard.map ~nodes:3 work (Array.init 80 (fun i -> i)) in
  Array.iteri
    (fun i -> function
      | Stdlib.Ok v -> Alcotest.(check int) "healthy slot" (i + 1) v
      | Stdlib.Error (Procpool.Raised msg) ->
          Alcotest.(check int) "raising index only" 7 (i mod 13);
          Alcotest.(check bool) "original exception carried" true
            (Test_helpers.contains msg (string_of_int i))
      | Stdlib.Error (Procpool.Crashed c) ->
          Alcotest.fail ("raise escalated to crash: " ^ Procpool.crash_to_string c))
    results

let test_shard_on_result_once_per_index () =
  let seen = ref [] in
  let results =
    Shard.map ~nodes:4
      ~on_result:(fun i r -> seen := (i, Stdlib.Result.is_ok r) :: !seen)
      (fun i -> i * 2)
      (Array.init 50 (fun i -> i))
  in
  Alcotest.(check int) "all results" 50 (Array.length results);
  let indices = List.sort compare (List.map fst !seen) in
  Alcotest.(check (list int))
    "on_result fired exactly once per index"
    (List.init 50 (fun i -> i))
    indices;
  Alcotest.(check bool) "all reported ok" true (List.for_all snd !seen)

let test_shard_orphaned_shard_migrates () =
  (* The node that takes index 0 SIGKILLs itself there, before it
     completes anything: both of its chunks, minus the one casualty,
     must return to the cursor and still complete — no queued job is
     ever lost with a node. *)
  let results =
    Shard.map ~nodes:3
      (fun i ->
        if i = 0 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        i + 100)
      (Array.init 60 (fun i -> i))
  in
  let crashed = ref 0 in
  Array.iteri
    (fun i -> function
      | Stdlib.Ok v -> Alcotest.(check int) "migrated job correct" (i + 100) v
      | Stdlib.Error _ -> incr crashed)
    results;
  Alcotest.(check int) "only the in-flight job is a casualty" 1 !crashed

let test_crash_attribution_exact () =
  (* A closure that SIGKILLs its own worker at one index — first, inside
     an early chunk, mid-array, last — must cost exactly that index, as
     a crash whose detail names the signal: whatever the chunking, the
     job the worker was running is the casualty and every other index,
     the dead worker's unanswered chunks included, completes with its
     value. *)
  List.iter
    (fun victim ->
      List.iter
        (fun workers ->
          let work i =
            if i = victim then Unix.kill (Unix.getpid ()) Sys.sigkill;
            i * 7
          in
          let results = Procpool.map ~workers work (Array.init 200 Fun.id) in
          Array.iteri
            (fun i r ->
              let tag =
                Printf.sprintf "workers=%d victim=%d index %d" workers victim i
              in
              match r with
              | Stdlib.Ok v when i <> victim -> Alcotest.(check int) tag (i * 7) v
              | Stdlib.Error (Procpool.Crashed { detail; _ }) when i = victim
                ->
                  Alcotest.(check bool) (tag ^ ": signal named") true
                    (Test_helpers.contains detail "SIGKILL")
              | Stdlib.Ok _ -> Alcotest.fail (tag ^ ": victim survived")
              | Stdlib.Error f ->
                  Alcotest.fail (tag ^ ": " ^ Procpool.failure_to_string f))
            results)
        [ 1; 2; 3 ])
    [ 0; 37; 130; 199 ]

let test_shard_rejects_bad_nodes () =
  match Shard.map ~nodes:0 (fun i -> i) [| 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nodes=0 accepted"

(* --- differential: processes backend vs domains backend ---------------- *)

(* One full tune under a given backend and jobs count, with a logical
   trace attached (and, given a path, a checkpoint): returns the
   algorithm's result, the trace bytes and the engine.  The engine is
   created explicitly so the trace and telemetry are ours to inspect. *)
let run_algo ?kill_workers_after ?checkpoint ?policy ?(pool_size = 24)
    ~backend ~jobs algo =
  let trace = Trace.create ~clock:Trace.Logical () in
  let checkpoint =
    Option.map (fun path -> Ft_engine.Checkpoint.create ~path ()) checkpoint
  in
  (* [jobs] doubles as the node count: each backend reads its own knob
     and ignores the other, so one matrix covers both. *)
  let engine =
    Engine.create ~jobs ~nodes:jobs ~backend ?kill_workers_after ?checkpoint
      ?policy ~trace ()
  in
  let session =
    Tuner.make_session ~pool_size ~engine ~platform ~program:swim
      ~input ~seed:42 ()
  in
  let result = Tuner.search algo session in
  Engine.flush_checkpoint engine;
  let bytes = String.concat "\n" (Export.jsonl_lines trace) ^ "\n" in
  (result, bytes, engine)

let check_differential algo =
  let base_result, base_bytes, _ =
    run_algo ~backend:Backend.Domains ~jobs:1 algo
  in
  List.iter
    (fun (backend, jobs) ->
      let result, bytes, _ = run_algo ~backend ~jobs algo in
      let tag =
        Printf.sprintf "%s %s/%d" algo (Backend.to_name backend) jobs
      in
      Alcotest.(check bool)
        (tag ^ ": result bit-identical to domains -j1")
        true (result = base_result);
      Alcotest.(check string)
        (tag ^ ": logical trace byte-identical to domains -j1")
        base_bytes bytes)
    [
      (Backend.Processes, 1);
      (Backend.Processes, 2);
      (Backend.Processes, 4);
      (Backend.Sharded, 2);
    ]

let test_differential_cfr () = check_differential "cfr"
let test_differential_fr () = check_differential "fr"
let test_differential_random () = check_differential "random"

let test_differential_adaptive_sh () =
  check_differential "adaptive-sh"

let test_differential_survives_worker_kills () =
  (* The acceptance property end-to-end: SIGKILL a worker on the first
     round of every batch, and the tune must still be byte-identical —
     result and logical trace — to an uninterrupted domains -j1 run,
     with the crashes visible in telemetry (and only there). *)
  let base_result, base_bytes, _ =
    run_algo ~backend:Backend.Domains ~jobs:1 "cfr"
  in
  let result, bytes, engine =
    run_algo ~backend:Backend.Processes ~jobs:4 ~kill_workers_after:3 "cfr"
  in
  Alcotest.(check bool) "result identical despite kills" true
    (result = base_result);
  Alcotest.(check string) "logical trace identical despite kills"
    base_bytes bytes;
  let s = Telemetry.snapshot (Engine.telemetry engine) in
  Alcotest.(check bool) "the kills actually happened" true
    (s.Telemetry.worker_crashes > 0)

let test_differential_survives_node_kills () =
  (* The sharded acceptance property end-to-end, under the same hook:
     SIGKILL the node running job 3 on the first round of every batch —
     returning its unanswered chunks to the cursor each time — and the
     tune must still be byte-identical, result and logical trace, to an
     uninterrupted domains -j1 run. *)
  let base_result, base_bytes, _ =
    run_algo ~backend:Backend.Domains ~jobs:1 "cfr"
  in
  let result, bytes, engine =
    run_algo ~backend:Backend.Sharded ~jobs:4 ~kill_workers_after:3 "cfr"
  in
  Alcotest.(check bool) "result identical despite node kills" true
    (result = base_result);
  Alcotest.(check string) "logical trace identical despite node kills"
    base_bytes bytes;
  let s = Telemetry.snapshot (Engine.telemetry engine) in
  Alcotest.(check bool) "the node kills actually happened" true
    (s.Telemetry.worker_crashes > 0)

let test_faulted_differential_full_chunks () =
  (* The differentials above run at pool size 24, where chunks hold at
     most 3 jobs and carry no faults.  At K = 600 on 2 workers chunks
     reach the cap of 64, so quarantine news, retries and outliers ride
     in one chunk delta: result, logical trace and quarantine bindings
     must still equal domains -j1. *)
  let policy =
    {
      Engine.default_policy with
      Engine.faults = Some (Ft_fault.Fault.make ~seed:7 ~rate:0.3 ());
      repeats = 3;
    }
  in
  let run backend jobs = run_algo ~policy ~pool_size:600 ~backend ~jobs "cfr" in
  let base_result, base_bytes, base_engine = run Backend.Domains 1 in
  let base_quar = Quarantine.bindings (Engine.quarantine base_engine) in
  Alcotest.(check bool) "the fault model quarantined something" true
    (base_quar <> []);
  let result, bytes, engine = run Backend.Processes 2 in
  Alcotest.(check bool) "result bit-identical to domains -j1" true
    (result = base_result);
  Alcotest.(check string) "logical trace byte-identical to domains -j1"
    base_bytes bytes;
  Alcotest.(check bool) "quarantine bindings equal domains -j1" true
    (Quarantine.bindings (Engine.quarantine engine) = base_quar)

(* --- differential: checkpointed runs ------------------------------------ *)

(* The on-disk checkpoint format must be invisible to the search and
   independent of the backend: with a checkpoint attached, results and
   logical traces are byte-identical to a checkpointed domains -j1 run
   at any backend and jobs count, and every flushed checkpoint loads to
   the same bindings.  Each leg runs in a forked child: a domains leg at
   jobs > 1 spawns domains, after which this process could no longer
   fork the later tests' workers. *)
let check_format_differential configs algo =
  let dir = Test_helpers.temp_dir "format-diff" in
  Fun.protect
    ~finally:(fun () -> Test_helpers.remove_tree dir)
    (fun () ->
      let run i backend jobs =
        Test_helpers.in_child (fun () ->
            let path = Filename.concat dir (Printf.sprintf "ck-%d.cache" i) in
            let result, bytes, _ =
              run_algo ~checkpoint:path ~backend ~jobs algo
            in
            (result, bytes, Cache.bindings (quiet_load path)))
      in
      let base_result, base_bytes, base_cache = run 0 Backend.Domains 1 in
      List.iteri
        (fun i (backend, jobs) ->
          let tag =
            Printf.sprintf "%s %s -j%d" algo (Backend.to_name backend) jobs
          in
          let result, bytes, cache = run (i + 1) backend jobs in
          Alcotest.(check bool) (tag ^ ": result = baseline") true
            (result = base_result);
          Alcotest.(check string)
            (tag ^ ": trace byte-identical to baseline")
            base_bytes bytes;
          Alcotest.(check bool)
            (tag ^ ": checkpoint loads to the baseline's bindings")
            true (cache = base_cache))
        configs)

let full_matrix =
  [
    (Backend.Domains, 2);
    (Backend.Domains, 4);
    (Backend.Processes, 1);
    (Backend.Processes, 2);
    (Backend.Processes, 4);
    (Backend.Sharded, 2);
    (Backend.Sharded, 4);
  ]

(* CFR gets the full jobs/backend matrix; the other algorithms spot-check
   parallel domains, processes and sharded against the sequential
   domains baseline to keep the suite's runtime in check. *)
let spot_matrix =
  [ (Backend.Domains, 4); (Backend.Processes, 4); (Backend.Sharded, 4) ]

let test_format_differential_cfr () =
  check_format_differential full_matrix "cfr"

let test_format_differential_fr () =
  check_format_differential spot_matrix "fr"

let test_format_differential_random () =
  check_format_differential spot_matrix "random"

let test_format_differential_adaptive_sh () =
  check_format_differential spot_matrix "adaptive-sh"

let sample_jobs n =
  let rng = Rng.create 11 in
  Array.init n (fun i ->
      {
        Engine.build =
          Engine.Uniform { cv = Ft_flags.Space.sample rng; instrumented = false };
        rng = Rng.of_label rng (string_of_int i);
      })

let test_worker_crash_exhausts_to_outcome () =
  (* With no retry budget, a killed worker's job must surface as the
     typed Worker_crashed outcome — quarantined, counted, and isolated
     from its siblings. *)
  let policy = { Engine.default_policy with Engine.max_retries = 0 } in
  let engine =
    Engine.create ~jobs:2 ~backend:Backend.Processes ~kill_workers_after:0
      ~policy ()
  in
  let outcomes =
    Engine.try_measure_batch engine ~toolchain ~program:swim ~input
      (sample_jobs 8)
  in
  let crashed = ref 0 in
  Array.iter
    (function
      | Engine.Worker_crashed detail ->
          incr crashed;
          Alcotest.(check bool) "crash detail carried" true
            (String.length detail > 0)
      | Engine.Ok _ -> ()
      | o -> Alcotest.fail ("unexpected outcome: " ^ Engine.outcome_to_string o))
    outcomes;
  Alcotest.(check int) "exactly the in-flight job is lost" 1 !crashed;
  let s = Telemetry.snapshot (Engine.telemetry engine) in
  Alcotest.(check int) "telemetry counts the crash" 1
    s.Telemetry.worker_crashes;
  Alcotest.(check bool) "crashed key quarantined" true
    (Quarantine.length (Engine.quarantine engine) > 0)

let test_worker_crash_retries_recover () =
  (* Default policy: the chaos kill on round 0 is absorbed by the retry
     rounds, so every outcome is Ok and bit-identical to domains.  Each
     engine gets a freshly sampled job array: the rng streams inside are
     mutable, so sharing one array across runs would skew the noise. *)
  let domains = Engine.create ~jobs:1 () in
  let expected =
    Engine.try_measure_batch domains ~toolchain ~program:swim ~input
      (sample_jobs 12)
  in
  let engine =
    Engine.create ~jobs:3 ~backend:Backend.Processes ~kill_workers_after:1 ()
  in
  let got =
    Engine.try_measure_batch engine ~toolchain ~program:swim ~input
      (sample_jobs 12)
  in
  Alcotest.(check bool) "retried batch bit-identical to domains" true
    (got = expected);
  let s = Telemetry.snapshot (Engine.telemetry engine) in
  Alcotest.(check int) "one crash recorded" 1 s.Telemetry.worker_crashes;
  Alcotest.(check int) "no crash survives to quarantine" 0
    (Quarantine.length (Engine.quarantine engine))

let test_worker_crashes_derivable_from_trace () =
  (* Crashes are wall-trace events like every other counter: deriving
     counters from the trace must reproduce telemetry exactly, kills
     included (the processes-backend extension of suite_obs's
     check_counters property). *)
  let trace = Trace.create ~clock:Trace.Wall () in
  let engine =
    Engine.create ~jobs:3 ~backend:Backend.Processes ~kill_workers_after:1
      ~trace ()
  in
  ignore
    (Engine.try_measure_batch engine ~toolchain ~program:swim ~input
       (sample_jobs 12));
  let s = Telemetry.snapshot (Engine.telemetry engine) in
  let d =
    Telemetry.snapshot
      (Telemetry.of_events
         (List.map (fun st -> st.Trace.event) (Trace.events trace)))
  in
  Alcotest.(check bool) "kills happened" true (s.Telemetry.worker_crashes > 0);
  Alcotest.(check int) "worker_crashes derivable from wall trace"
    s.Telemetry.worker_crashes d.Telemetry.worker_crashes

(* --- shared cache across processes ------------------------------------ *)

let summary_of_seed seed =
  {
    Exec.sum_total_s = float_of_int (seed mod 97) +. 0.5;
    sum_nonloop_s = float_of_int (seed mod 13) +. 0.25;
    sum_loops = [ ("calc1", float_of_int seed /. 7.0) ];
  }

let test_cache_sync_concurrent_writers () =
  (* Four forked children race Cache.sync against one file, each bringing
     disjoint entries; the advisory lock must serialize the read-merge-
     write cycles so the final file is the exact union. *)
  let dir = Test_helpers.temp_dir "cache-sync" in
  let path = Filename.concat dir "shared.cache" in
  let entries_of child =
    List.init 25 (fun k -> (Printf.sprintf "child-%d-key-%d" child k, summary_of_seed (child * 100 + k)))
  in
  flush stdout;
  flush stderr;
  let pids =
    List.init 4 (fun child ->
        match Unix.fork () with
        | 0 ->
            (* In the child: never return into Alcotest — _exit always. *)
            (try
               let c = Cache.create () in
               List.iter (fun (k, s) -> Cache.add c k s) (entries_of child);
               ignore (Cache.sync c ~quarantine:(Quarantine.create ()) ~path);
               Unix._exit 0
             with _ -> Unix._exit 1)
        | pid -> pid)
  in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> Alcotest.fail "a syncing child failed")
    pids;
  let merged = Cache.load ~warn:(fun ~line:_ ~reason:_ -> ()) path in
  Alcotest.(check int) "every child's entries survive" 100
    (Cache.length merged);
  List.iter
    (fun child ->
      List.iter
        (fun (k, s) ->
          Alcotest.(check bool) ("entry survives: " ^ k) true
            (Cache.find merged k = Some s))
        (entries_of child))
    [ 0; 1; 2; 3 ];
  Test_helpers.remove_tree dir

let test_old_formats_migrate () =
  (* A v1 text or v2 binary cache (an old checkpoint or --warm-start
     file) must read back bit-exactly, be adopted wholesale by a sync and
     be migrated to a v3 log in place, losing nothing. *)
  List.iter
    (fun (fixture, version, detected) ->
      let dir = Test_helpers.temp_dir "migrate" in
      let path = Filename.concat dir "c.cache" in
      Fun.protect
        ~finally:(fun () -> Test_helpers.remove_tree dir)
        (fun () ->
          let old_entries =
            List.init 20 (fun k ->
                (Printf.sprintf "%s-key-%d" version k, summary_of_seed k))
          in
          let bits (k, (s : Exec.summary)) =
            ( k,
              List.map Int64.bits_of_float
                (s.sum_total_s :: s.sum_nonloop_s :: List.map snd s.sum_loops)
            )
          in
          Alcotest.(check bool)
            (version ^ " fixture reads back bit-exactly")
            true
            (List.map bits (Cache.bindings (quiet_load fixture))
            = List.map bits (List.sort compare old_entries));
          Test_helpers.write_file path (Test_helpers.read_file fixture);
          Alcotest.(check bool) (version ^ " on disk") true
            (Ft_engine.Cache_codec.detect (Test_helpers.read_file path)
            = detected);
          let fresh = Cache.create () in
          Cache.add fresh "v3-key" (summary_of_seed 999);
          let { Cache.adopted; _ } =
            Cache.sync fresh ~quarantine:(Quarantine.create ()) ~path
          in
          Alcotest.(check int) ("every " ^ version ^ " entry adopted") 20
            adopted;
          Alcotest.(check bool) "migrated to a v3 log on disk" true
            (Ft_engine.Cache_codec.detect (Test_helpers.read_file path)
            = `Binary);
          let reloaded = quiet_load path in
          Alcotest.(check int) "union survives the migration" 21
            (Cache.length reloaded);
          List.iter
            (fun (k, s) ->
              Alcotest.(check bool) (version ^ " entry survives: " ^ k) true
                (Cache.find reloaded k = Some s))
            (("v3-key", summary_of_seed 999) :: old_entries)))
    [
      (Test_helpers.v1_cache_fixture, "v1", `Text);
      (Test_helpers.v2_cache_fixture, "v2", `Binary_v2);
    ]

let test_sync_survives_sigkill_mid_append () =
  (* The crash-safety property at the file-protocol level: a writer
     SIGKILLed at an arbitrary point of its sync loop — possibly holding
     the sidecar lock, possibly mid-append, possibly mid-compaction —
     must cost at most its own uncommitted tail.  Concurrent and later
     writers heal the torn tail (decode refuses it; the next sync
     truncates or compacts it away) and lose none of their own entries. *)
  let dir = Test_helpers.temp_dir "sync-kill" in
  let path = Filename.concat dir "shared.cache" in
  Fun.protect
    ~finally:(fun () -> Test_helpers.remove_tree dir)
    (fun () ->
      let r, w = Unix.pipe () in
      flush stdout;
      flush stderr;
      let victim =
        match Unix.fork () with
        | 0 ->
            (* Loop forever, syncing a fresh batch each round and
               signalling the parent after each committed sync; the
               parent's SIGKILL lands at an arbitrary protocol point. *)
            (try
               Unix.close r;
               let c = Cache.create () and quarantine = Quarantine.create () in
               let round = ref 0 in
               while true do
                 incr round;
                 List.iter
                   (fun k ->
                     Cache.add c
                       (Printf.sprintf "victim-%d-%d" !round k)
                       (summary_of_seed ((1000 * !round) + k)))
                   [ 0; 1; 2; 3; 4 ];
                 ignore (Cache.sync c ~quarantine ~path);
                 ignore (Unix.write w (Bytes.of_string "s") 0 1)
               done;
               Unix._exit 0
             with _ -> Unix._exit 1)
        | pid -> pid
      in
      Unix.close w;
      (* Two acknowledged syncs, so rounds 1 and 2 are committed; then
         kill wherever the victim happens to be. *)
      let b = Bytes.create 1 in
      ignore (Unix.read r b 0 1);
      ignore (Unix.read r b 0 1);
      Unix.kill victim Sys.sigkill;
      ignore (Unix.waitpid [] victim);
      Unix.close r;
      (* Now race three fresh writers over the possibly-torn file. *)
      let entries_of child =
        List.init 25 (fun k ->
            ( Printf.sprintf "writer-%d-key-%d" child k,
              summary_of_seed ((child * 100) + k) ))
      in
      flush stdout;
      flush stderr;
      let pids =
        List.init 3 (fun child ->
            match Unix.fork () with
            | 0 ->
                (try
                   let c = Cache.create () and quarantine = Quarantine.create () in
                   (* Five delta-sync rounds of five entries each. *)
                   List.iteri
                     (fun i (k, s) ->
                       Cache.add c k s;
                       if (i + 1) mod 5 = 0 then
                         ignore (Cache.sync c ~quarantine ~path))
                     (entries_of child);
                   Unix._exit 0
                 with _ -> Unix._exit 1)
            | pid -> pid)
      in
      List.iter
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _, _ -> Alcotest.fail "a syncing writer failed")
        pids;
      let merged = quiet_load path in
      (* Every surviving writer's entry is present... *)
      List.iter
        (fun child ->
          List.iter
            (fun (k, s) ->
              Alcotest.(check bool) ("writer entry survives: " ^ k) true
                (Cache.find merged k = Some s))
            (entries_of child))
        [ 0; 1; 2 ];
      (* ...and so is everything the victim committed before the kill. *)
      List.iter
        (fun round ->
          List.iter
            (fun k ->
              let key = Printf.sprintf "victim-%d-%d" round k in
              Alcotest.(check bool) ("committed victim entry survives: " ^ key)
                true
                (Cache.find merged key
                = Some (summary_of_seed ((1000 * round) + k))))
            [ 0; 1; 2; 3; 4 ])
        [ 1; 2 ];
      (* The healed file stays appendable. *)
      let late = Cache.create () in
      Cache.add late "late-key" (summary_of_seed 7);
      ignore (Cache.sync late ~quarantine:(Quarantine.create ()) ~path);
      let final = quiet_load path in
      Alcotest.(check bool) "file still appendable after the kill" true
        (Cache.find final "late-key" = Some (summary_of_seed 7));
      Alcotest.(check bool) "append after heal loses nothing" true
        (Cache.find final "writer-2-key-24" = Some (summary_of_seed 224)))

(* --- stale temp-file sweep --------------------------------------------- *)

let age_file path =
  (* Backdate far past the sweep's grace period. *)
  let old = Unix.gettimeofday () -. (2.0 *. Atomic_file.default_grace_s) in
  Unix.utimes path old old

let test_load_sweeps_stale_tmp_files () =
  (* Orphaned temporaries of SIGKILLed writers (older than the grace
     period) are removed by the next load; fresh temporaries — a live
     writer mid-emit — and the committed file itself are untouched. *)
  let dir = Test_helpers.temp_dir "sweep" in
  let path = Filename.concat dir "c.cache" in
  Fun.protect
    ~finally:(fun () -> Test_helpers.remove_tree dir)
    (fun () ->
      let c = Cache.create () in
      Cache.add c (Cache.digest "k") (summary_of_seed 3);
      Cache.save c ~path;
      let stale =
        List.map
          (fun i ->
            let p = Filename.concat dir (Printf.sprintf ".c.cache%d.tmp" i) in
            Test_helpers.write_file p "orphaned garbage";
            age_file p;
            p)
          [ 0; 1 ]
      in
      let fresh = Filename.concat dir ".c.cacheF.tmp" in
      Test_helpers.write_file fresh "live writer mid-emit";
      let unrelated = Filename.concat dir ".other.cache9.tmp" in
      Test_helpers.write_file unrelated "someone else's temp";
      age_file unrelated;
      Alcotest.(check (list string))
        "stale_tmp_files finds exactly the orphans"
        (List.sort compare stale)
        (List.sort compare (Atomic_file.stale_tmp_files ~path ()));
      let loaded = quiet_load path in
      Alcotest.(check bool) "committed data intact" true
        (Cache.find loaded (Cache.digest "k") = Some (summary_of_seed 3));
      List.iter
        (fun p ->
          Alcotest.(check bool) ("orphan swept: " ^ p) false
            (Sys.file_exists p))
        stale;
      Alcotest.(check bool) "fresh tmp file untouched" true
        (Sys.file_exists fresh);
      Alcotest.(check bool) "other file's tmp untouched" true
        (Sys.file_exists unrelated))

let test_sync_sweeps_stale_tmp_files () =
  let dir = Test_helpers.temp_dir "sweep-sync" in
  let path = Filename.concat dir "c.cache" in
  Fun.protect
    ~finally:(fun () -> Test_helpers.remove_tree dir)
    (fun () ->
      let orphan = Filename.concat dir ".c.cacheX.tmp" in
      Test_helpers.write_file orphan "orphaned garbage";
      age_file orphan;
      let c = Cache.create () in
      Cache.add c (Cache.digest "k") (summary_of_seed 5);
      ignore (Cache.sync c ~quarantine:(Quarantine.create ()) ~path);
      Alcotest.(check bool) "orphan swept by sync" false
        (Sys.file_exists orphan);
      Alcotest.(check bool) "sync still committed" true
        (Cache.find (quiet_load path) (Cache.digest "k")
        = Some (summary_of_seed 5)))

(* --- QCheck crash injection: Atomic_file and Cache persistence --------- *)

let loop_name_gen =
  QCheck.Gen.(
    map
      (fun (a, b) -> Printf.sprintf "loop_%c%d" (Char.chr (97 + (a mod 26))) b)
      (pair (int_bound 25) (int_bound 99)))

let summary_gen =
  QCheck.Gen.(
    map
      (fun (total, nonloop, loops) ->
        { Exec.sum_total_s = total; sum_nonloop_s = nonloop; sum_loops = loops })
      (triple (float_bound_exclusive 1000.0) (float_bound_exclusive 100.0)
         (list_size (int_bound 4) (pair loop_name_gen (float_bound_exclusive 50.0)))))

let cache_entries_gen =
  QCheck.Gen.(
    list_size (int_range 1 30)
      (pair (map Cache.digest (string_size (int_range 1 20))) summary_gen))

let cache_entries_arb =
  QCheck.make ~print:(fun l -> Printf.sprintf "<%d entries>" (List.length l))
    cache_entries_gen

let cache_of entries =
  let c = Cache.create () in
  List.iter (fun (k, s) -> Cache.add c k s) entries;
  c

let prop_truncation_never_corrupts =
  (* Chop a saved cache at an arbitrary byte: load must either reject the
     file outright (header torn: Corrupt) or return a strict subset of
     the committed entries — never a corrupted or invented one. *)
  QCheck.Test.make ~count:60 ~name:"truncated cache file never corrupts a read"
    QCheck.(pair cache_entries_arb (int_bound 10_000))
    (fun (entries, cut_seed) ->
      let dir = Test_helpers.temp_dir "trunc" in
      let path = Filename.concat dir "c.cache" in
      Fun.protect
        ~finally:(fun () -> Test_helpers.remove_tree dir)
        (fun () ->
          let original = cache_of entries in
          Cache.save original ~path;
          let bytes = Test_helpers.read_file path in
          let cut = cut_seed mod (String.length bytes + 1) in
          Test_helpers.write_file path (String.sub bytes 0 cut);
          match quiet_load path with
          | exception Cache.Corrupt _ ->
              (* Acceptable only while the header itself is torn. *)
              cut < String.length "ft-engine-cache/1\n"
          | recovered ->
              List.for_all
                (fun (k, s) -> Cache.find original k = Some s)
                (Cache.bindings recovered)))

let prop_leftover_tmp_files_ignored =
  (* Stale temporaries from crashed writers may litter the directory; a
     load of the committed file must not see them. *)
  QCheck.Test.make ~count:30 ~name:"leftover .tmp files never affect a load"
    cache_entries_arb
    (fun entries ->
      let dir = Test_helpers.temp_dir "tmplitter" in
      let path = Filename.concat dir "c.cache" in
      Fun.protect
        ~finally:(fun () -> Test_helpers.remove_tree dir)
        (fun () ->
          let original = cache_of entries in
          Cache.save original ~path;
          List.iter
            (fun i ->
              Test_helpers.write_file
                (Filename.concat dir (Printf.sprintf ".c.cache%d.tmp" i))
                "torn garbage\x00not a cache")
            [ 0; 1; 2 ];
          let recovered = quiet_load path in
          Cache.bindings recovered = Cache.bindings original))

let prop_crashed_writer_keeps_snapshot =
  (* An emit that raises mid-write (a "crash" of the writer) must leave
     the previously committed snapshot byte-intact and clean up its
     temporary. *)
  QCheck.Test.make ~count:60 ~name:"torn atomic write keeps last snapshot"
    QCheck.(pair cache_entries_arb (int_bound 500))
    (fun (entries, partial) ->
      let dir = Test_helpers.temp_dir "tornwrite" in
      let path = Filename.concat dir "c.cache" in
      Fun.protect
        ~finally:(fun () -> Test_helpers.remove_tree dir)
        (fun () ->
          Cache.save (cache_of entries) ~path;
          let committed = Test_helpers.read_file path in
          (match
             Atomic_file.write ~path (fun oc ->
                 output_string oc (String.make partial 'x');
                 raise Exit)
           with
          | exception Exit -> ()
          | () -> failwith "emit crash swallowed");
          let survives = Test_helpers.read_file path = committed in
          let no_litter =
            Array.for_all
              (fun name -> not (Filename.check_suffix name ".tmp"))
              (Sys.readdir dir)
          in
          survives && no_litter))

let prop_save_load_roundtrip_bit_exact =
  QCheck.Test.make ~count:60 ~name:"save/load round-trip is bit-exact"
    cache_entries_arb
    (fun entries ->
      let dir = Test_helpers.temp_dir "roundtrip" in
      let path = Filename.concat dir "c.cache" in
      Fun.protect
        ~finally:(fun () -> Test_helpers.remove_tree dir)
        (fun () ->
          let original = cache_of entries in
          Cache.save original ~path;
          Cache.bindings (quiet_load path) = Cache.bindings original))

let suite =
  ( "backend",
    [
      Alcotest.test_case "backend names round-trip" `Quick test_backend_names;
      Alcotest.test_case "procpool preserves order" `Quick
        test_procpool_map_in_order;
      Alcotest.test_case "procpool isolates raised exceptions" `Quick
        test_procpool_raised_is_isolated;
      Alcotest.test_case "procpool on_result once per index" `Quick
        test_procpool_on_result_once_per_index;
      Alcotest.test_case "procpool kill surfaces as crash" `Quick
        test_procpool_kill_surfaces_as_crash;
      Alcotest.test_case "procpool rejects workers=0" `Quick
        test_procpool_rejects_bad_workers;
      Alcotest.test_case "shard preserves order under skewed work" `Quick
        test_shard_map_in_order;
      Alcotest.test_case "shard isolates raised exceptions" `Quick
        test_shard_raised_is_isolated;
      Alcotest.test_case "shard on_result once per index" `Quick
        test_shard_on_result_once_per_index;
      Alcotest.test_case "shard orphaned queue migrates" `Quick
        test_shard_orphaned_shard_migrates;
      Alcotest.test_case "shard rejects nodes=0" `Quick
        test_shard_rejects_bad_nodes;
      Alcotest.test_case "crash costs exactly the running job" `Quick
        test_crash_attribution_exact;
      Alcotest.test_case "cfr differential (procs+shard vs domains)" `Quick
        test_differential_cfr;
      Alcotest.test_case "fr differential (procs+shard vs domains)" `Quick
        test_differential_fr;
      Alcotest.test_case "random differential (procs+shard vs domains)" `Quick
        test_differential_random;
      Alcotest.test_case "adaptive-sh differential (procs+shard vs domains)"
        `Quick test_differential_adaptive_sh;
      Alcotest.test_case "differential survives worker kills" `Quick
        test_differential_survives_worker_kills;
      Alcotest.test_case "differential survives node kills" `Quick
        test_differential_survives_node_kills;
      Alcotest.test_case "faulted differential at the chunk cap" `Quick
        test_faulted_differential_full_chunks;
      Alcotest.test_case "cfr format differential (full matrix)" `Quick
        test_format_differential_cfr;
      Alcotest.test_case "fr format differential" `Quick
        test_format_differential_fr;
      Alcotest.test_case "random format differential" `Quick
        test_format_differential_random;
      Alcotest.test_case "adaptive-sh format differential" `Quick
        test_format_differential_adaptive_sh;
      Alcotest.test_case "worker crash exhausts to typed outcome" `Quick
        test_worker_crash_exhausts_to_outcome;
      Alcotest.test_case "worker crash retries recover bit-identically" `Quick
        test_worker_crash_retries_recover;
      Alcotest.test_case "worker crashes derivable from wall trace" `Quick
        test_worker_crashes_derivable_from_trace;
      Alcotest.test_case "concurrent Cache.sync writers union" `Quick
        test_cache_sync_concurrent_writers;
      Alcotest.test_case "v1/v2 caches migrate to v3" `Quick
        test_old_formats_migrate;
      Alcotest.test_case "sync survives SIGKILL mid-append" `Quick
        test_sync_survives_sigkill_mid_append;
      Alcotest.test_case "load sweeps stale tmp orphans" `Quick
        test_load_sweeps_stale_tmp_files;
      Alcotest.test_case "sync sweeps stale tmp orphans" `Quick
        test_sync_sweeps_stale_tmp_files;
      QCheck_alcotest.to_alcotest prop_truncation_never_corrupts;
      QCheck_alcotest.to_alcotest prop_leftover_tmp_files_ignored;
      QCheck_alcotest.to_alcotest prop_crashed_writer_keeps_snapshot;
      QCheck_alcotest.to_alcotest prop_save_load_roundtrip_bit_exact;
    ] )
