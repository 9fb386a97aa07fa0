(* Tests for the parallel evaluation engine: worker-pool order and error
   discipline, deterministic parallelism of the searches built on it,
   cache round-trips and hit accounting, telemetry. *)

open Ft_prog
module Pool = Ft_engine.Pool
module Cache = Ft_engine.Cache
module Telemetry = Ft_obs.Telemetry
module Engine = Ft_engine.Engine
module Exec = Ft_machine.Exec
module Context = Funcytuner.Context
module Collection = Funcytuner.Collection
module Result = Funcytuner.Result
module Tuner = Funcytuner.Tuner
module Rng = Ft_util.Rng

let program = Option.get (Ft_suite.Suite.find "363.swim")
let platform = Platform.Broadwell
let input = Ft_suite.Suite.tuning_input platform program

let make_session ?(pool_size = 40) ?(seed = 4242) jobs =
  Tuner.make_session ~pool_size ~jobs ~platform ~program ~input ~seed ()

(* --- Pool ----------------------------------------------------------------- *)

let test_pool_preserves_order () =
  (* Stress fan-out: work per item varies by two orders of magnitude, so
     late submissions overtake early ones on any schedule — results must
     come back in submission order regardless. *)
  let items = Array.init 500 (fun i -> i) in
  let work i =
    let spins = if i mod 7 = 0 then 5000 else 50 in
    let acc = ref i in
    for _ = 1 to spins do
      acc := (!acc * 31) mod 65537
    done;
    (i, !acc)
  in
  let sequential = Pool.map ~jobs:1 work items in
  let parallel = Pool.map ~jobs:8 work items in
  Alcotest.(check bool) "parallel = sequential" true (sequential = parallel);
  Array.iteri
    (fun idx (i, _) ->
      Alcotest.(check int) "submission order preserved" idx i)
    parallel

let test_pool_propagates_failure () =
  let work i = if i = 13 then failwith "boom" else i in
  (match Pool.map ~jobs:4 work (Array.init 64 (fun i -> i)) with
  | exception Pool.Worker_failure (Failure msg) ->
      Alcotest.(check string) "original exception carried" "boom" msg
  | exception e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "worker failure swallowed");
  match Pool.map ~jobs:1 work (Array.init 64 (fun i -> i)) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "sequential failure swallowed"

let test_pool_map_result_partial () =
  (* One poisoned item must not take the batch down: every other result is
     preserved, in submission order, with the failure carried as [Error]. *)
  let work i = if i mod 17 = 13 then failwith (string_of_int i) else i * i in
  let check jobs =
    let results = Pool.map_result ~jobs work (Array.init 100 (fun i -> i)) in
    Alcotest.(check int) "all slots filled" 100 (Array.length results);
    Array.iteri
      (fun i r ->
        match r with
        | Ok v -> Alcotest.(check int) "ok slot in order" (i * i) v
        | Error (Failure msg) ->
            Alcotest.(check int) "failing index preserved" i
              (int_of_string msg);
            Alcotest.(check int) "only poisoned items fail" 13 (i mod 17)
        | Error e -> Alcotest.fail (Printexc.to_string e))
      results
  in
  check 1;
  check 4

let test_pool_map_result_matches_map_on_success () =
  let work i = i + 1 in
  let items = Array.init 50 (fun i -> i) in
  let plain = Pool.map ~jobs:4 work items in
  let wrapped = Pool.map_result ~jobs:4 work items in
  Alcotest.(check bool) "same values modulo Ok" true
    (Array.for_all2 (fun v r -> r = Ok v) plain wrapped)

let test_pool_rejects_bad_jobs () =
  match Pool.map ~jobs:0 (fun i -> i) [| 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jobs=0 accepted"

(* A job long enough (~50 us) for a parked helper to wake and claim some
   of the batch; it returns the id of the domain that ran it. *)
let spin_id _ =
  let until = Ft_util.Clock.now () +. 50e-6 in
  while Ft_util.Clock.now () < until do
    ()
  done;
  (Domain.self () :> int)

let caller_id () = (Domain.self () :> int)

(* The distinct domain ids in the lists [ids], less the caller's. *)
let helper_ids ids =
  List.sort_uniq compare
    (List.filter (fun id -> id <> caller_id ()) (List.concat ids))

let max_helpers = Domain.recommended_domain_count () - 1

let test_pool_spawns_helpers_once () =
  let batches =
    List.init 20 (fun _ ->
        Array.to_list (Pool.map ~jobs:2 spin_id (Array.init 64 Fun.id)))
  in
  let seen = helper_ids batches in
  if List.length seen > max_helpers then
    Alcotest.failf "%d helper domains over 20 batches, at most %d expected"
      (List.length seen) max_helpers

let test_pool_recovers_after_failures () =
  let ran = Mutex.create () and ids = ref [] in
  let record i =
    let id = spin_id i in
    Mutex.protect ran (fun () -> ids := id :: !ids)
  in
  (match
     Pool.map ~jobs:2
       (fun i -> record i; if i = 40 then failwith "boom")
       (Array.init 64 Fun.id)
   with
  | exception Pool.Worker_failure (Failure _) -> ()
  | exception e -> Alcotest.fail ("unexpected: " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "failure swallowed");
  (match
     Pool.map_result ~jobs:2
       (fun i -> record i; if i = 40 then raise (Pool.Abort "stop"))
       (Array.init 64 Fun.id)
   with
  | exception Pool.Worker_failure (Pool.Abort _) -> ()
  | exception e -> Alcotest.fail ("unexpected: " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "abort captured");
  let clean =
    Pool.map ~jobs:2 (fun i -> (i, spin_id i)) (Array.init 64 Fun.id)
  in
  Array.iteri
    (fun idx (i, _) -> Alcotest.(check int) "clean batch in order" idx i)
    clean;
  let seen = helper_ids [ !ids; Array.to_list (Array.map snd clean) ] in
  if List.length seen > max_helpers then
    Alcotest.failf "%d helper domains across the three batches, at most %d"
      (List.length seen) max_helpers

let test_pool_nested_and_concurrent () =
  let items = Array.init 16 Fun.id in
  let square i =
    ignore (spin_id i);
    i * i
  in
  let nested =
    Pool.map ~jobs:2 (fun i -> Pool.map ~jobs:2 (fun j -> (10 * i) + j) items)
      items
  in
  Array.iteri
    (fun i row ->
      Alcotest.(check (array int)) "nested results in order"
        (Array.map (fun j -> (10 * i) + j) items) row)
    nested;
  let concurrent =
    List.init 2 (fun _ ->
        Domain.spawn (fun () -> Pool.map ~jobs:2 square items))
  in
  List.iter
    (fun d ->
      Alcotest.(check (array int)) "concurrent results in order"
        (Array.map (fun i -> i * i) items) (Domain.join d))
    concurrent

(* --- deterministic parallelism -------------------------------------------- *)

let test_collection_parallel_bit_identical () =
  let collect jobs =
    Lazy.force (make_session jobs).Tuner.collection
  in
  let seq = collect 1 and par = collect 4 in
  Alcotest.(check bool) "times matrices bit-identical" true
    (seq.Collection.times = par.Collection.times);
  Alcotest.(check bool) "totals bit-identical" true
    (seq.Collection.totals = par.Collection.totals)

let check_result_equal what (a : Result.t) (b : Result.t) =
  Alcotest.(check string) (what ^ " algorithm") a.Result.algorithm b.Result.algorithm;
  Alcotest.(check bool) (what ^ " best_seconds bit-identical") true
    (a.Result.best_seconds = b.Result.best_seconds);
  Alcotest.(check bool) (what ^ " speedup bit-identical") true
    (a.Result.speedup = b.Result.speedup);
  Alcotest.(check bool) (what ^ " trace bit-identical") true
    (a.Result.trace = b.Result.trace);
  Alcotest.(check bool) (what ^ " configuration identical") true
    (a.Result.configuration = b.Result.configuration)

let test_run_all_parallel_bit_identical () =
  (* The acceptance property: a fixed seed gives byte-identical reports
     under jobs=4 and jobs=1. *)
  let report jobs = Tuner.run_all ~top_x:8 (make_session ~pool_size:30 jobs) in
  let seq = report 1 and par = report 4 in
  check_result_equal "random" seq.Tuner.random par.Tuner.random;
  check_result_equal "fr" seq.Tuner.fr par.Tuner.fr;
  check_result_equal "cfr" seq.Tuner.cfr par.Tuner.cfr;
  check_result_equal "greedy"
    seq.Tuner.greedy.Funcytuner.Greedy.realized
    par.Tuner.greedy.Funcytuner.Greedy.realized;
  Alcotest.(check bool) "greedy independent bound bit-identical" true
    (seq.Tuner.greedy.Funcytuner.Greedy.independent_seconds
    = par.Tuner.greedy.Funcytuner.Greedy.independent_seconds)

let test_worker_count_does_not_leak_into_streams () =
  let cfr jobs = (Tuner.run_cfr ~top_x:5 (make_session ~seed:77 jobs)).Result.speedup in
  let s1 = cfr 1 in
  Alcotest.(check bool) "jobs=2,3,8 all agree with jobs=1" true
    (List.for_all (fun j -> cfr j = s1) [ 2; 3; 8 ])

(* --- cache ----------------------------------------------------------------- *)

let toolchain = Ft_machine.Toolchain.make platform

let some_builds =
  let rng = Rng.create 9 in
  List.init 6 (fun i ->
      Engine.Uniform
        { cv = Ft_flags.Space.sample rng; instrumented = i mod 2 = 0 })

let test_cache_roundtrip () =
  let engine = Engine.create () in
  List.iter
    (fun b ->
      ignore (Engine.summary engine ~toolchain ~program ~input b))
    some_builds;
  let cache = Engine.cache engine in
  Alcotest.(check int) "six distinct entries" 6 (Cache.length cache);
  let path = Filename.temp_file "ft_cache" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cache.save cache ~path;
      Alcotest.(check bool) "save/load round-trip is bit-exact" true
        (Cache.bindings cache = Cache.bindings (Cache.load path)))

let test_cache_load_rejects_garbage () =
  let path = Filename.temp_file "ft_cache" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a cache\n";
      close_out oc;
      match Cache.load path with
      | exception Cache.Corrupt { line; _ } ->
          Alcotest.(check int) "rejected at the header line" 1 line
      | _ -> Alcotest.fail "garbage accepted")

let test_cache_load_skips_malformed_entries () =
  (* After a valid v1 magic line, a torn entry (e.g. a crash mid-write
     before Cache.save became atomic) is skipped and reported, not
     fatal.  Pinned to the v1 fixture: the torn line is a text-era
     artifact (its binary counterpart is the next test). *)
  let path = Filename.temp_file "ft_cache" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Test_helpers.write_file path
        (Test_helpers.read_file Test_helpers.v1_cache_fixture
        ^ "torn\tentry\n");
      let warned = ref [] in
      let reloaded =
        Cache.load ~warn:(fun ~line ~reason -> warned := (line, reason) :: !warned) path
      in
      Alcotest.(check int) "valid entries survive" 20 (Cache.length reloaded);
      Alcotest.(check int) "exactly one warning" 1 (List.length !warned);
      Alcotest.(check int) "warning points at the torn line" 22
        (fst (List.hd !warned)))

let test_binary_cache_tolerates_torn_tail () =
  (* The binary counterpart: garbage appended to a v2 file (a writer
     killed mid-append) is refused at the frame layer — committed
     entries all load, the tail is reported, nothing is invented. *)
  let engine = Engine.create () in
  List.iter
    (fun b -> ignore (Engine.summary engine ~toolchain ~program ~input b))
    some_builds;
  let path = Filename.temp_file "ft_cache" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cache.save (Engine.cache engine) ~path;
      let oc = open_out_gen [ Open_append; Open_binary ] 0o600 path in
      output_string oc "torn\tentry\n";
      close_out oc;
      let warned = ref [] in
      let reloaded =
        Cache.load ~warn:(fun ~line ~reason -> warned := (line, reason) :: !warned) path
      in
      Alcotest.(check int) "committed entries survive" 6
        (Cache.length reloaded);
      Alcotest.(check int) "the torn tail is reported" 1 (List.length !warned))

let test_cache_save_is_atomic () =
  (* The write goes through a temp file + rename: saving over an existing
     file never leaves a *.tmp sibling behind. *)
  let engine = Engine.create () in
  List.iter
    (fun b -> ignore (Engine.summary engine ~toolchain ~program ~input b))
    some_builds;
  let dir = Filename.temp_file "ft_atomic" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "cache.tsv" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Cache.save (Engine.cache engine) ~path;
      Cache.save (Engine.cache engine) ~path;
      Alcotest.(check (list string))
        "only the cache file remains" [ "cache.tsv" ]
        (Array.to_list (Sys.readdir dir)))

let test_mkdir_p () =
  (* Parents are created; an existing directory and its contents are
     left as they are. *)
  let root = Test_helpers.temp_dir "mkdir-p" in
  let nested = Filename.concat (Filename.concat root "a") "b" in
  let marker = Filename.concat nested "keep" in
  Fun.protect
    ~finally:(fun () -> Test_helpers.remove_tree root)
    (fun () ->
      Ft_engine.Atomic_file.mkdir_p nested;
      Alcotest.(check bool) "nested path created" true (Sys.is_directory nested);
      Test_helpers.write_file marker "kept";
      Ft_engine.Atomic_file.mkdir_p nested;
      Alcotest.(check string) "existing path untouched" "kept"
        (Test_helpers.read_file marker))

let test_cache_hit_counting () =
  let engine = Engine.create () in
  let build = List.hd some_builds in
  let summary () = Engine.summary engine ~toolchain ~program ~input build in
  let first = summary () in
  let again = summary () in
  let third = summary () in
  Alcotest.(check bool) "hits return the same summary" true
    (first = again && again = third);
  let s = Telemetry.snapshot (Engine.telemetry engine) in
  Alcotest.(check int) "one miss" 1 s.Telemetry.cache_misses;
  Alcotest.(check int) "two hits" 2 s.Telemetry.cache_hits;
  Alcotest.(check int) "one build" 1 s.Telemetry.builds;
  Alcotest.(check int) "one run" 1 s.Telemetry.runs

let test_preloaded_cache_changes_nothing () =
  (* Warming an engine with a persisted cache must not change any measured
     value — noise lives outside the cache. *)
  let run ?cache () =
    let engine = Engine.create ?cache () in
    let session =
      Tuner.make_session ~pool_size:25 ~engine ~platform ~program ~input
        ~seed:321 ()
    in
    (Tuner.run_cfr ~top_x:5 session, engine)
  in
  let cold, engine = run () in
  let path = Filename.temp_file "ft_cache" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cache.save (Engine.cache engine) ~path;
      let warm, warm_engine = run ~cache:(Cache.load path) () in
      Alcotest.(check bool) "warm result bit-identical" true
        (cold.Result.speedup = warm.Result.speedup
        && cold.Result.trace = warm.Result.trace);
      let s = Telemetry.snapshot (Engine.telemetry warm_engine) in
      Alcotest.(check int) "warm run never built" 0 s.Telemetry.builds)

let test_key_sensitivity () =
  let key build = Engine.key ~toolchain ~program ~input build in
  let cv = Ft_flags.Cv.o3 in
  let uniform = Engine.Uniform { cv; instrumented = false } in
  let instrumented = Engine.Uniform { cv; instrumented = true } in
  let assigned =
    Engine.Assigned { assignment = [ ("m", cv) ]; instrumented = false }
  in
  Alcotest.(check bool) "instrumentation changes the key" false
    (key uniform = key instrumented);
  Alcotest.(check bool) "build kind changes the key" false
    (key uniform = key assigned);
  let other_input = Ft_prog.Input.with_steps input (input.Input.steps + 1) in
  Alcotest.(check bool) "input changes the key" false
    (key uniform = Engine.key ~toolchain ~program ~input:other_input uniform);
  Alcotest.(check string) "assignment order does not change the key"
    (Engine.key ~toolchain ~program ~input
       (Engine.Assigned
          { assignment = [ ("a", cv); ("b", Ft_flags.Cv.o2) ]; instrumented = false }))
    (Engine.key ~toolchain ~program ~input
       (Engine.Assigned
          { assignment = [ ("b", Ft_flags.Cv.o2); ("a", cv) ]; instrumented = false }))

(* Cache keys are persistent: a checkpoint written by one build of funcy
   is read by the next, so the canonical bytes behind a key may never
   drift.  The digests below were taken from an earlier implementation of
   the key construction (a growing [Buffer] with per-digit appends), so
   they check the current one against an independent witness. *)
let test_key_bytes_pinned () =
  let key build = Engine.key ~toolchain ~program ~input build in
  let cv1 = Ft_flags.Cv.set Ft_flags.Cv.o3 Ft_flags.Flag.Unroll 4 in
  let cv2 =
    Ft_flags.Cv.set
      (Ft_flags.Cv.set Ft_flags.Cv.o2 Ft_flags.Flag.Ipo 1)
      Ft_flags.Flag.Tile 3
  in
  Alcotest.(check string) "uniform build key"
    "df999b9ccfd8c5018224b6e82562f580"
    (key (Engine.Uniform { cv = cv1; instrumented = false }));
  Alcotest.(check string) "assigned build key"
    "2c3189a72bf026f07a9587eeb824ee22"
    (key
       (Engine.Assigned
          {
            assignment =
              [ ("zeta", cv1); ("<residual>", cv2); ("alpha", Ft_flags.Cv.o3) ];
            instrumented = true;
          }))

(* --- telemetry -------------------------------------------------------------- *)

let test_telemetry_progress_and_timers () =
  let t = Telemetry.create () in
  let seen = ref [] in
  Telemetry.set_progress t (fun ~completed ~expected ->
      seen := (completed, expected) :: !seen);
  Telemetry.expect t 3;
  Telemetry.tick t;
  Telemetry.tick t;
  Telemetry.tick t;
  Alcotest.(check (list (pair int int)))
    "ticks report completed/expected"
    [ (3, 3); (2, 3); (1, 3) ]
    !seen;
  Telemetry.count t (Ft_obs.Event.Timer { name = "phase"; seconds = 1.5 });
  Telemetry.count t (Ft_obs.Event.Timer { name = "phase"; seconds = 0.5 });
  let s = Telemetry.snapshot t in
  Alcotest.(check (list (pair string (float 1e-9))))
    "timers accumulate"
    [ ("phase", 2.0) ]
    s.Telemetry.timers

let test_render_mentions_counters () =
  let engine = Engine.create () in
  ignore
    (Engine.summary engine ~toolchain ~program ~input (List.hd some_builds));
  let rendered = Telemetry.render (Engine.telemetry engine) in
  Alcotest.(check bool) "render mentions builds" true
    (Test_helpers.contains rendered "builds");
  Alcotest.(check bool) "render mentions cache" true
    (Test_helpers.contains rendered "cache")

let suite =
  ( "engine",
    [
      Alcotest.test_case "pool order under stress fan-out" `Quick
        test_pool_preserves_order;
      Alcotest.test_case "pool failure propagation" `Quick
        test_pool_propagates_failure;
      Alcotest.test_case "pool map_result keeps partial results" `Quick
        test_pool_map_result_partial;
      Alcotest.test_case "pool map_result = map on success" `Quick
        test_pool_map_result_matches_map_on_success;
      Alcotest.test_case "pool rejects jobs=0" `Quick test_pool_rejects_bad_jobs;
      Alcotest.test_case "pool spawns helpers once" `Quick
        test_pool_spawns_helpers_once;
      Alcotest.test_case "pool recovers after failures" `Quick
        test_pool_recovers_after_failures;
      Alcotest.test_case "pool nested and concurrent calls" `Quick
        test_pool_nested_and_concurrent;
      Alcotest.test_case "collection parallel determinism" `Quick
        test_collection_parallel_bit_identical;
      Alcotest.test_case "run_all parallel determinism" `Quick
        test_run_all_parallel_bit_identical;
      Alcotest.test_case "worker count independence" `Quick
        test_worker_count_does_not_leak_into_streams;
      Alcotest.test_case "cache save/load round-trip" `Quick
        test_cache_roundtrip;
      Alcotest.test_case "cache rejects garbage" `Quick
        test_cache_load_rejects_garbage;
      Alcotest.test_case "cache skips malformed entries" `Quick
        test_cache_load_skips_malformed_entries;
      Alcotest.test_case "binary cache tolerates a torn tail" `Quick
        test_binary_cache_tolerates_torn_tail;
      Alcotest.test_case "cache save is atomic" `Quick
        test_cache_save_is_atomic;
      Alcotest.test_case "mkdir_p creates parents" `Quick test_mkdir_p;
      Alcotest.test_case "cache hit counting" `Quick test_cache_hit_counting;
      Alcotest.test_case "preloaded cache changes nothing" `Quick
        test_preloaded_cache_changes_nothing;
      Alcotest.test_case "cache key sensitivity" `Quick test_key_sensitivity;
      Alcotest.test_case "cache key bytes pinned" `Quick test_key_bytes_pinned;
      Alcotest.test_case "telemetry progress and timers" `Quick
        test_telemetry_progress_and_timers;
      Alcotest.test_case "telemetry render" `Quick test_render_mentions_counters;
    ] )
