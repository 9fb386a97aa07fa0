(* Tests for the funcytuner core: contexts, the per-loop collection, and
   the four §2.2 search algorithms on reduced budgets. *)

open Ft_prog
module Context = Funcytuner.Context
module Collection = Funcytuner.Collection
module Result = Funcytuner.Result
module Tuner = Funcytuner.Tuner
module Cfr = Funcytuner.Cfr
module Outline = Ft_outline.Outline
module Toolchain = Ft_machine.Toolchain

let program = Ft_suite.Cloverleaf.program
let platform = Platform.Broadwell
let input = Ft_suite.Suite.tuning_input platform program

(* One shared small session: profiling + outlining + a 120-CV collection. *)
let session =
  lazy
    (Tuner.make_session ~pool_size:120 ~platform ~program ~input ~seed:1234 ())

let collection () = Lazy.force (Lazy.force session).Tuner.collection

(* --- Context -------------------------------------------------------------- *)

let test_context_pool_and_baseline () =
  let ctx = (Lazy.force session).Tuner.ctx in
  Alcotest.(check int) "pool size" 120 (Array.length ctx.Context.pool);
  Alcotest.(check bool) "baseline positive" true (ctx.Context.baseline_s > 0.0);
  Alcotest.(check (float 1e-9)) "speedup identity" 1.0
    (Context.speedup ctx ctx.Context.baseline_s)

let test_context_pool_deterministic () =
  let make () =
    Context.make ~pool_size:10 ~toolchain:(Toolchain.make platform) ~program
      ~input ~seed:99 ()
  in
  let a = make () and b = make () in
  Array.iteri
    (fun i cv ->
      Alcotest.(check bool) "same pool for same seed" true
        (Ft_flags.Cv.equal cv b.Context.pool.(i)))
    a.Context.pool

let test_context_evaluate_vs_measure () =
  let ctx = (Lazy.force session).Tuner.ctx in
  let truth = Context.evaluate_uniform ctx Ft_flags.Cv.o3 in
  let noisy =
    match
      Context.try_measure_uniform ctx ~rng:(Ft_util.Rng.create 5)
        Ft_flags.Cv.o3
    with
    | Ft_engine.Engine.Ok m -> m.Ft_machine.Exec.elapsed_s
    | o -> Alcotest.fail (Ft_engine.Engine.outcome_to_string o)
  in
  Alcotest.(check bool) "noise small" true
    (Float.abs (noisy -. truth) /. truth < 0.05);
  Alcotest.(check (float 1e-9)) "evaluate matches baseline" ctx.Context.baseline_s truth

(* --- Collection ------------------------------------------------------------ *)

let test_collection_dimensions () =
  let c = collection () in
  let modules = Array.length c.Collection.modules in
  Alcotest.(check int) "rows = J+1"
    (Outline.module_count (Lazy.force session).Tuner.outline)
    modules;
  Array.iter
    (fun row -> Alcotest.(check int) "K columns" 120 (Array.length row))
    c.Collection.times;
  Alcotest.(check int) "K totals" 120 (Array.length c.Collection.totals)

let test_collection_times_positive () =
  let c = collection () in
  Array.iter
    (Array.iter (fun t ->
         Alcotest.(check bool) "T[j][k] >= 0" true (t >= 0.0)))
    c.Collection.times

let test_collection_rows_sum_to_totals () =
  (* Residual is derived by subtraction, so each column must re-add to the
     end-to-end time. *)
  let c = collection () in
  Array.iteri
    (fun k total ->
      let sum = ref 0.0 in
      Array.iter (fun row -> sum := !sum +. row.(k)) c.Collection.times;
      Alcotest.(check (float 1e-6)) "column adds up" total !sum)
    c.Collection.totals

let test_collection_best_cv () =
  let c = collection () in
  let name = c.Collection.modules.(1) in
  let best = Collection.best_cv_for c name in
  let row = c.Collection.times.(1) in
  let k = Ft_util.Stats.argmin row in
  Alcotest.(check bool) "argmin CV returned" true
    (Ft_flags.Cv.equal best c.Collection.pool.(k))

let test_collection_top_k_subset_ordered () =
  let c = collection () in
  let name = c.Collection.modules.(2) in
  let row = c.Collection.times.(2) in
  let top = Collection.top_k_for c name 10 in
  Alcotest.(check int) "10 CVs" 10 (Array.length top);
  Alcotest.(check bool) "head is the best" true
    (Ft_flags.Cv.equal top.(0) (Collection.best_cv_for c name));
  (* Every returned CV's collected time is within the 10 smallest. *)
  let sorted = Array.copy row in
  Array.sort compare sorted;
  let threshold = sorted.(9) in
  Array.iter
    (fun cv ->
      let k = ref (-1) in
      Array.iteri
        (fun i p -> if Ft_flags.Cv.equal p cv && !k < 0 then k := i)
        c.Collection.pool;
      Alcotest.(check bool) "within top-10 times" true
        (row.(!k) <= threshold +. 1e-12))
    top

let test_module_index () =
  let c = collection () in
  Alcotest.(check bool) "residual at 0" true
    (Collection.module_index c Outline.residual_module = Some 0);
  Alcotest.(check bool) "missing module" true
    (Collection.module_index c "nope" = None)

(* --- Result helpers --------------------------------------------------------- *)

let test_best_so_far () =
  Alcotest.(check (list (float 1e-9))) "prefix minimum"
    [ 5.0; 3.0; 3.0; 1.0; 1.0 ]
    (Result.best_so_far [ 5.0; 3.0; 4.0; 1.0; 2.0 ]);
  Alcotest.(check (list (float 1e-9))) "empty" [] (Result.best_so_far [])

let test_evaluations_to_best () =
  let r =
    Result.make ~algorithm:"t" ~configuration:(Result.Whole_program Ft_flags.Cv.o3)
      ~baseline_s:10.0 ~evaluations:5
      ~trace:[ 5.0; 3.0; 3.0; 1.0; 1.0 ]
      ~best_seconds:1.0
  in
  Alcotest.(check int) "first eval within 0.5% of final" 4
    (Result.evaluations_to_best r)

(* --- algorithms -------------------------------------------------------------- *)

let test_random_search () =
  let ctx = (Lazy.force session).Tuner.ctx in
  let r = Funcytuner.Random_search.run ctx in
  Alcotest.(check string) "name" "Random" r.Result.algorithm;
  Alcotest.(check int) "K evaluations" 120 r.Result.evaluations;
  Alcotest.(check int) "trace length" 120 (List.length r.Result.trace);
  Alcotest.(check bool) "speedup positive" true (r.Result.speedup > 0.0);
  (match r.Result.configuration with
  | Result.Whole_program _ -> ()
  | Result.Per_module _ -> Alcotest.fail "random is per-program");
  (* With 120 candidates + the implicit O3 point in the space, random
     search should not end up slower than ~5% below baseline. *)
  Alcotest.(check bool) "sane speedup" true (r.Result.speedup > 0.9)

let test_fr_per_module () =
  let s = Lazy.force session in
  let r = Funcytuner.Fr.run s.Tuner.ctx s.Tuner.outline in
  Alcotest.(check string) "name" "FR" r.Result.algorithm;
  match r.Result.configuration with
  | Result.Per_module assignment ->
      Alcotest.(check int) "one CV per module"
        (Outline.module_count s.Tuner.outline)
        (List.length assignment)
  | Result.Whole_program _ -> Alcotest.fail "FR is per-module"

let test_greedy () =
  let s = Lazy.force session in
  let g = Funcytuner.Greedy.run s.Tuner.ctx (collection ()) in
  Alcotest.(check int) "one realized measurement" 1
    g.Funcytuner.Greedy.realized.Result.evaluations;
  Alcotest.(check bool) "independent bound beats realized" true
    (g.Funcytuner.Greedy.independent_speedup
    > g.Funcytuner.Greedy.realized.Result.speedup);
  (* The independent sum uses per-module minima, so it must be at least
     the speedup of the best single uniform build. *)
  let best_uniform =
    Array.fold_left Float.min infinity (collection ()).Collection.totals
  in
  Alcotest.(check bool) "independent >= best uniform" true
    (g.Funcytuner.Greedy.independent_seconds <= best_uniform +. 1e-9)

let test_cfr () =
  let s = Lazy.force session in
  let r = Cfr.run ~top_x:10 s.Tuner.ctx (collection ()) in
  Alcotest.(check string) "name" "CFR" r.Result.algorithm;
  Alcotest.(check int) "K evaluations" 120 r.Result.evaluations;
  match r.Result.configuration with
  | Result.Per_module assignment ->
      (* Every assigned CV must come from its module's pruned pool. *)
      let pools = Cfr.pruned_pools ~top_x:10 (collection ()) in
      List.iter
        (fun (m, cv) ->
          let pool = List.assoc m pools in
          Alcotest.(check bool)
            ("CV for " ^ m ^ " is inside its pruned space")
            true
            (Array.exists (Ft_flags.Cv.equal cv) pool))
        assignment
  | Result.Whole_program _ -> Alcotest.fail "CFR is per-module"

let test_cfr_pruned_pools_sizes () =
  let pools = Cfr.pruned_pools ~top_x:7 (collection ()) in
  List.iter
    (fun (_, pool) -> Alcotest.(check int) "top-X width" 7 (Array.length pool))
    pools

let test_pipeline_determinism () =
  let run () =
    let s =
      Tuner.make_session ~pool_size:40 ~platform ~program ~input ~seed:77 ()
    in
    (Tuner.run_cfr ~top_x:5 s).Result.speedup
  in
  Alcotest.(check (float 1e-12)) "same seed, same CFR result" (run ()) (run ())

let test_seed_changes_results () =
  let run seed =
    let s =
      Tuner.make_session ~pool_size:40 ~platform ~program ~input ~seed ()
    in
    (Tuner.run_cfr ~top_x:5 s).Result.speedup
  in
  Alcotest.(check bool) "different seeds explore differently" true
    (run 7 <> run 8)

let test_evaluate_configuration_other_input () =
  let s = Lazy.force session in
  let cfr = Tuner.run_cfr ~top_x:10 s in
  let small = Ft_suite.Suite.small_input program in
  let t =
    Tuner.evaluate_configuration s ~input:small ~rng:(Ft_util.Rng.create 3)
      cfr.Result.configuration
  in
  let o3 = Tuner.o3_seconds s ~input:small in
  Alcotest.(check bool) "re-evaluation runs" true (t > 0.0);
  Alcotest.(check bool) "tuned result in a sane band" true
    (o3 /. t > 0.8 && o3 /. t < 2.0)

let test_adaptive_cfr () =
  let s = Lazy.force session in
  let r =
    Funcytuner.Adaptive.run ~top_x:10 ~patience:20 s.Tuner.ctx (collection ())
  in
  Alcotest.(check string) "name" "CFR-adaptive" r.Result.algorithm;
  (* +1: the final confirmation of the winner counts as budget spend. *)
  Alcotest.(check bool) "stops within the budget" true
    (r.Result.evaluations <= 121);
  Alcotest.(check bool) "spent at least patience evaluations" true
    (r.Result.evaluations >= 21);
  Alcotest.(check int) "trace is the loop spend, evaluations one more"
    r.Result.evaluations
    (List.length r.Result.trace + 1);
  (* The adaptive variant should land close to full CFR. *)
  let full = Funcytuner.Cfr.run ~top_x:10 s.Tuner.ctx (collection ()) in
  Alcotest.(check bool)
    (Printf.sprintf "within 5%% of full CFR (%.3f vs %.3f)" r.Result.speedup
       full.Result.speedup)
    true
    (r.Result.speedup > full.Result.speedup -. 0.05)

let test_adaptive_patience_controls_budget () =
  let s = Lazy.force session in
  let short =
    Funcytuner.Adaptive.run ~top_x:10 ~patience:5 s.Tuner.ctx (collection ())
  in
  let long =
    Funcytuner.Adaptive.run ~top_x:10 ~patience:60 s.Tuner.ctx (collection ())
  in
  Alcotest.(check bool) "more patience, at least as many evaluations" true
    (long.Result.evaluations >= short.Result.evaluations)

(* --- Allocator: the pure budget allocator's laws --------------------------- *)

module Allocator = Funcytuner.Allocator

(* Drive an allocator to completion on a synthetic score function,
   calling [check] after every observation.  Returns the final state and
   every pull issued, in order. *)
let drive ?(check = fun _ -> ()) ~score alloc =
  let rec go alloc acc =
    let pulls, awaiting = Allocator.next_batch alloc in
    match pulls with
    | [] -> (alloc, List.rev acc)
    | _ ->
        let alloc = Allocator.observe awaiting (List.map score pulls) in
        check alloc;
        go alloc (List.rev_append pulls acc)
  in
  go alloc []

(* A deterministic pure score: a hash of (seed, arm, repeat). *)
let synth_score seed { Allocator.arm; repeat } =
  let rng =
    Ft_util.Rng.of_label
      (Ft_util.Rng.create seed)
      (Printf.sprintf "%d:%d" arm repeat)
  in
  Ft_util.Rng.float rng 10.0

let alloc_case_arb =
  QCheck.make
    ~print:(fun (sh, arms, slack, p, seed) ->
      Printf.sprintf "sh=%b arms=%d slack=%d p=%d seed=%d" sh arms slack p
        seed)
    QCheck.Gen.(
      map
        (fun ((sh, arms), (slack, (p, seed))) -> (sh, arms, slack, p, seed))
        (pair
           (pair bool (int_range 1 12))
           (pair (int_range 0 60) (pair (int_range 2 4) (int_bound 10_000)))))

let prop_allocator_laws =
  QCheck.Test.make ~count:300
    ~name:
      "allocator laws: budget conservation, fair first look, monotone \
       promotion, replay determinism"
    alloc_case_arb
    (fun (sh, arms, slack, p, seed) ->
      let budget = arms + slack in
      let policy =
        if sh then Allocator.Successive_halving { eta = p }
        else Allocator.Ucb { exploration = 0.5; batch = p }
      in
      let make () = Allocator.create ~policy ~arms ~budget () in
      let score = synth_score seed in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let seen = ref 0 in
      let elim_seen = ref false in
      let check alloc =
        if Allocator.spent alloc > budget then
          fail "spent %d overshoots budget %d" (Allocator.spent alloc) budget;
        let ds = Allocator.decisions alloc in
        let fresh = List.filteri (fun i _ -> i >= !seen) ds in
        seen := List.length ds;
        let means = Allocator.means alloc in
        (* Fair first look: no elimination before every arm has a pull. *)
        (if (not !elim_seen)
            && List.exists
                 (function Allocator.Eliminated _ -> true | _ -> false)
                 fresh
         then begin
           elim_seen := true;
           if not (Array.for_all (fun c -> c >= 1) (Allocator.counts alloc))
           then fail "elimination before every arm was pulled"
         end);
        (* Promotion monotonicity, on the rung that just closed: no
           eliminated arm may have a strictly better mean than any
           promoted arm. *)
        let promoted =
          List.filter_map
            (function Allocator.Promoted { arm; _ } -> Some arm | _ -> None)
            fresh
        and eliminated =
          List.filter_map
            (function
              | Allocator.Eliminated { arm; _ } -> Some arm | _ -> None)
            fresh
        in
        List.iter
          (fun e ->
            List.iter
              (fun p ->
                if Float.compare means.(e) means.(p) < 0 then
                  fail "eliminated arm %d (mean %f) beats promoted %d (%f)" e
                    means.(e) p means.(p))
              promoted)
          eliminated
      in
      let final, pulls = drive ~check ~score (make ()) in
      if not (Allocator.finished final) then fail "never finished";
      (* Conservation is exact on completion. *)
      if Allocator.spent final <> budget then
        fail "spent %d <> budget %d on completion" (Allocator.spent final)
          budget;
      if List.length pulls <> budget then fail "pull log disagrees with spend";
      (* Replay determinism: identical inputs, identical decisions and
         pull sequence. *)
      let final', pulls' = drive ~score (make ()) in
      Allocator.decisions final = Allocator.decisions final' && pulls = pulls')

let test_allocator_rejects () =
  let reject name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ " accepted")
  in
  reject "arms=0" (fun () -> Allocator.create ~arms:0 ~budget:5 ());
  reject "budget<arms" (fun () -> Allocator.create ~arms:5 ~budget:4 ());
  reject "eta=1" (fun () ->
      Allocator.create
        ~policy:(Allocator.Successive_halving { eta = 1 })
        ~arms:2 ~budget:4 ());
  reject "short priors" (fun () ->
      Allocator.create ~priors:[| Some 1.0 |] ~arms:2 ~budget:4 ());
  reject "nan prior" (fun () ->
      Allocator.create ~priors:[| Some Float.nan; None |] ~arms:2 ~budget:4 ());
  let a = Allocator.create ~arms:2 ~budget:4 () in
  let pulls, awaiting = Allocator.next_batch a in
  reject "double next_batch" (fun () -> Allocator.next_batch awaiting);
  reject "observe without batch" (fun () -> Allocator.observe a [ 1.0 ]);
  reject "observe length mismatch" (fun () ->
      Allocator.observe awaiting (1.0 :: List.map (fun _ -> 1.0) pulls));
  reject "observe NaN" (fun () ->
      Allocator.observe awaiting (List.map (fun _ -> Float.nan) pulls))

let test_allocator_prior_bias () =
  (* Two arms, equal observed scores: without priors the index tie-break
     promotes arm 0; a bad prior pseudo-score on arm 0 flips it. *)
  let promoted_of priors =
    let a =
      Allocator.create
        ~policy:(Allocator.Successive_halving { eta = 2 })
        ?priors ~arms:2 ~budget:3 ()
    in
    let final, _ = drive ~score:(fun _ -> 5.0) a in
    List.filter_map
      (function
        | Allocator.Promoted { rung = 0; arm } -> Some arm | _ -> None)
      (Allocator.decisions final)
  in
  Alcotest.(check (list int)) "tie goes to arm 0" [ 0 ] (promoted_of None);
  Alcotest.(check (list int)) "a bad prior on arm 0 flips the tie" [ 1 ]
    (promoted_of (Some [| Some 10.0; None |]))

let test_allocator_ucb_exploits () =
  (* A clearly best arm must absorb most of a UCB budget. *)
  let a =
    Allocator.create
      ~policy:(Allocator.Ucb { exploration = 0.1; batch = 2 })
      ~arms:3 ~budget:30 ()
  in
  let score { Allocator.arm; _ } = if arm = 0 then 1.0 else 5.0 in
  let final, _ = drive ~score a in
  let counts = Allocator.counts final in
  Alcotest.(check bool)
    (Printf.sprintf "best arm dominates (%d/%d/%d)" counts.(0) counts.(1)
       counts.(2))
    true
    (counts.(0) > counts.(1) + counts.(2));
  Alcotest.(check (option int)) "best is the cheap arm" (Some 0)
    (Allocator.best final)

(* --- Adaptive_sh: successive-halving CFR ----------------------------------- *)

module Adaptive_sh = Funcytuner.Adaptive_sh

let test_adaptive_sh_basic () =
  let s = Lazy.force session in
  let r = Adaptive_sh.run s.Tuner.ctx (collection ()) in
  let budget = Adaptive_sh.default_budget s.Tuner.ctx in
  Alcotest.(check string) "name" "CFR-SH" r.Result.algorithm;
  Alcotest.(check int) "evaluations = budget + final confirmation"
    (budget + 1) r.Result.evaluations;
  Alcotest.(check int) "trace is the allocator spend" budget
    (List.length r.Result.trace);
  Alcotest.(check bool) "positive speedup" true (r.Result.speedup > 0.0);
  let r' = Adaptive_sh.run s.Tuner.ctx (collection ()) in
  Alcotest.(check (float 0.0)) "deterministic" r.Result.speedup
    r'.Result.speedup

let test_adaptive_sh_quality_vs_budget () =
  (* The ROADMAP target, enforced: at a quarter of CFR's evaluation
     budget, adaptive-sh must come within 2% of CFR's best time. *)
  let s = Lazy.force session in
  let cfr = Tuner.run_cfr s in
  let sh = Adaptive_sh.run s.Tuner.ctx (collection ()) in
  Alcotest.(check bool)
    (Printf.sprintf "quarter budget (%d vs %d)" sh.Result.evaluations
       cfr.Result.evaluations)
    true
    (sh.Result.evaluations <= (cfr.Result.evaluations / 4) + 1);
  Alcotest.(check bool)
    (Printf.sprintf "within 2%% of CFR's best time (%.4f vs %.4f)"
       sh.Result.best_seconds cfr.Result.best_seconds)
    true
    (sh.Result.best_seconds <= cfr.Result.best_seconds *. 1.02)

let test_adaptive_sh_trace_events () =
  (* The rung lifecycle is visible as typed events, under the logical
     clock, and survives selfcheck normalization. *)
  let trace = Ft_obs.Trace.create ~clock:Ft_obs.Trace.Logical () in
  let engine = Ft_engine.Engine.create ~trace () in
  let s =
    Tuner.make_session ~pool_size:40 ~engine ~platform ~program ~input
      ~seed:7 ()
  in
  let r = Adaptive_sh.run s.Tuner.ctx (Lazy.force s.Tuner.collection) in
  Alcotest.(check bool) "ran" true (r.Result.evaluations > 0);
  let events =
    List.map (fun st -> st.Ft_obs.Trace.event) (Ft_obs.Trace.events trace)
  in
  let count p = List.length (List.filter p events) in
  let opened =
    count (function Ft_obs.Event.Rung_opened _ -> true | _ -> false)
  and closed =
    count (function Ft_obs.Event.Rung_closed _ -> true | _ -> false)
  and promoted =
    count (function Ft_obs.Event.Arm_promoted _ -> true | _ -> false)
  and eliminated =
    count (function Ft_obs.Event.Arm_eliminated _ -> true | _ -> false)
  in
  Alcotest.(check bool) "rungs opened" true (opened >= 2);
  Alcotest.(check int) "every rung closed" opened closed;
  Alcotest.(check bool) "promotions and eliminations recorded" true
    (promoted > 0 && eliminated > 0);
  let normalized = Ft_obs.Trace.normalized_lines trace in
  Alcotest.(check bool) "rung events survive normalization" true
    (List.exists (fun l -> Test_helpers.contains l "rung_open") normalized
    && List.exists (fun l -> Test_helpers.contains l "arm_elim") normalized)

let test_adaptive_sh_warm_start () =
  (* A warm cache from a previous identical run pre-scores every arm;
     the warm search must still be valid and deterministic. *)
  let cache = Ft_engine.Cache.create () in
  let run ?warm ~engine () =
    let s =
      Tuner.make_session ~pool_size:40 ~engine ~platform ~program ~input
        ~seed:5 ()
    in
    Adaptive_sh.run ?warm s.Tuner.ctx (Lazy.force s.Tuner.collection)
  in
  let cold = run ~engine:(Ft_engine.Engine.create ~cache ()) () in
  let warm () = run ~warm:cache ~engine:(Ft_engine.Engine.create ()) () in
  let w1 = warm () and w2 = warm () in
  Alcotest.(check string) "same algorithm" cold.Result.algorithm
    w1.Result.algorithm;
  Alcotest.(check int) "same budget spent" cold.Result.evaluations
    w1.Result.evaluations;
  Alcotest.(check (float 0.0)) "warm start deterministic" w1.Result.speedup
    w2.Result.speedup

let suite =
  ( "core",
    [
      Alcotest.test_case "context basics" `Quick test_context_pool_and_baseline;
      Alcotest.test_case "context determinism" `Quick
        test_context_pool_deterministic;
      Alcotest.test_case "evaluate vs measure" `Quick
        test_context_evaluate_vs_measure;
      Alcotest.test_case "collection dimensions" `Quick
        test_collection_dimensions;
      Alcotest.test_case "collection positivity" `Quick
        test_collection_times_positive;
      Alcotest.test_case "collection additivity" `Quick
        test_collection_rows_sum_to_totals;
      Alcotest.test_case "best CV per module" `Quick test_collection_best_cv;
      Alcotest.test_case "top-k pruning" `Quick
        test_collection_top_k_subset_ordered;
      Alcotest.test_case "module index" `Quick test_module_index;
      Alcotest.test_case "best-so-far traces" `Quick test_best_so_far;
      Alcotest.test_case "convergence metric" `Quick test_evaluations_to_best;
      Alcotest.test_case "random search" `Quick test_random_search;
      Alcotest.test_case "FR" `Quick test_fr_per_module;
      Alcotest.test_case "greedy + independence bound" `Quick test_greedy;
      Alcotest.test_case "CFR focusing" `Quick test_cfr;
      Alcotest.test_case "pruned pool widths" `Quick
        test_cfr_pruned_pools_sizes;
      Alcotest.test_case "pipeline determinism" `Quick
        test_pipeline_determinism;
      Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_results;
      Alcotest.test_case "generalization evaluation" `Quick
        test_evaluate_configuration_other_input;
      Alcotest.test_case "adaptive CFR" `Quick test_adaptive_cfr;
      Alcotest.test_case "adaptive patience" `Quick
        test_adaptive_patience_controls_budget;
      QCheck_alcotest.to_alcotest prop_allocator_laws;
      Alcotest.test_case "allocator rejects" `Quick test_allocator_rejects;
      Alcotest.test_case "allocator prior bias" `Quick
        test_allocator_prior_bias;
      Alcotest.test_case "allocator UCB exploits" `Quick
        test_allocator_ucb_exploits;
      Alcotest.test_case "adaptive-sh basics" `Quick test_adaptive_sh_basic;
      Alcotest.test_case "adaptive-sh quality at quarter budget" `Quick
        test_adaptive_sh_quality_vs_budget;
      Alcotest.test_case "adaptive-sh rung trace events" `Quick
        test_adaptive_sh_trace_events;
      Alcotest.test_case "adaptive-sh warm start" `Quick
        test_adaptive_sh_warm_start;
    ] )
