(* Differential checkpoint/resume equivalence, driven by the Selfcheck
   oracle: for cfr/cfr-adaptive/fr/random/adaptive-sh at jobs 1/2/4, kill
   the search at EVERY evaluation boundary, resume from the snapshot, and
   require the result, cache, quarantine and normalized logical trace to
   reproduce byte-for-byte.  The suite is parameterized over the
   execution backend: the domains variant runs in test_main, the
   processes variant in test_backend (forking is illegal in a process
   that ever spawned a domain). *)

open Ft_prog
module Engine = Ft_engine.Engine
module Cache = Ft_engine.Cache
module Quarantine = Ft_engine.Quarantine
module Backend = Ft_engine.Backend
module Selfcheck = Ft_engine.Selfcheck
module Exec = Ft_machine.Exec
module Fault = Ft_fault.Fault
module Tuner = Funcytuner.Tuner
module Result = Funcytuner.Result

let program = Option.get (Ft_suite.Suite.find "363.swim")
let platform = Platform.Broadwell
let input = Ft_suite.Suite.tuning_input platform program

(* Small pool so kill-at-every-boundary stays cheap: cfr performs
   2 * pool evaluations (collection + search), cfr-adaptive at most
   that, fr/random perform pool. *)
let pool_size = 6

let with_scratch f =
  let dir = Test_helpers.temp_dir "selfcheck" in
  Fun.protect ~finally:(fun () -> Test_helpers.remove_tree dir) (fun () -> f dir)

let search_of name engine =
  Result.render_exact
    (Tuner.search ~top_x:3 name
       (Tuner.make_session ~pool_size ~engine ~platform ~program ~input
          ~seed:42 ()))

let oracle ?(policy = Engine.default_policy) ?kill_points ~backend ~jobs ~algo
    () =
  with_scratch @@ fun scratch ->
  let make_engine ~cache ~quarantine ~checkpoint ~trace =
    (* [jobs] doubles as the sharded backend's node count. *)
    Engine.create ~jobs ~nodes:jobs ~backend ~cache ~quarantine ~policy
      ?checkpoint ?trace ()
  in
  Selfcheck.run ?kill_points ~scratch ~label:"test" ~make_engine
    ~search:(search_of algo) ()

(* Every boundary: pass an over-long kill list and let the oracle clamp it
   to the reference run's [1..evaluations] range. *)
let every_boundary = List.init 64 (fun i -> i + 1)

let test_kill_everywhere ~backend ~algo ~jobs () =
  let o = oracle ~kill_points:every_boundary ~backend ~jobs ~algo () in
  Alcotest.(check bool)
    ("all boundaries covered: " ^ Selfcheck.render o)
    true
    (List.length o.Selfcheck.kill_points = o.Selfcheck.evaluations
    && o.Selfcheck.evaluations > 0);
  Alcotest.(check bool) (Selfcheck.render o) true (Selfcheck.passed o)

let test_faulty_search_equivalence ~backend () =
  let policy =
    {
      Engine.default_policy with
      Engine.faults = Some (Fault.make ~seed:7 ~rate:0.3 ());
    }
  in
  let o =
    oracle ~policy ~kill_points:every_boundary ~backend ~jobs:2 ~algo:"cfr" ()
  in
  Alcotest.(check bool) (Selfcheck.render o) true (Selfcheck.passed o)

(* The oracle must catch real state corruption, not just bless everything:
   tamper with one cached summary on the resume path and require a
   divergence.  (Reference and doomed runs receive fresh empty caches, so
   only the engine resumed from a snapshot is affected.) *)
let test_oracle_catches_tampered_resume ~backend () =
  with_scratch @@ fun scratch ->
  let make_engine ~cache ~quarantine ~checkpoint ~trace =
    (match Cache.bindings cache with
    | (key, s) :: _ ->
        Cache.add cache key
          { s with Exec.sum_total_s = s.Exec.sum_total_s *. 2.0 }
    | [] -> ());
    Engine.create ~jobs:2 ~nodes:2 ~backend ~cache ~quarantine ?checkpoint
      ?trace ()
  in
  let o =
    Selfcheck.run ~kill_points:[ 4 ] ~scratch ~label:"tampered" ~make_engine
      ~search:(search_of "cfr") ()
  in
  Alcotest.(check bool) "tampered resume diverges" false (Selfcheck.passed o);
  Alcotest.(check bool) "divergence names the cache" true
    (List.exists
       (fun d -> d.Selfcheck.part = "cache")
       o.Selfcheck.divergences)

let cases backend =
  let matrix =
    List.concat_map
      (fun algo ->
        List.map
          (fun jobs ->
            Alcotest.test_case
              (Printf.sprintf "%s jobs=%d: kill at every boundary" algo jobs)
              `Slow
              (test_kill_everywhere ~backend ~algo ~jobs))
          [ 1; 2; 4 ])
      [ "cfr"; "cfr-adaptive"; "fr"; "random"; "adaptive-sh" ]
  in
  matrix
  @ [
      Alcotest.test_case "cfr under faults: kill at every boundary" `Slow
        (test_faulty_search_equivalence ~backend);
      Alcotest.test_case "oracle catches a tampered resume" `Quick
        (test_oracle_catches_tampered_resume ~backend);
    ]

let suite = ("selfcheck", cases Backend.Domains)
let suite_processes = ("selfcheck-processes", cases Backend.Processes)
let suite_sharded = ("selfcheck-sharded", cases Backend.Sharded)
