(* Tests for ft_experiments: Series arithmetic, Lab caching, and
   reduced-budget shape checks of the figure runners — the integration
   layer of the reproduction. *)

open Ft_prog
module Series = Ft_experiments.Series
module Lab = Ft_experiments.Lab

(* --- Series ----------------------------------------------------------- *)

let sample =
  Series.make ~title:"t" ~columns:[ "A"; "B" ]
    [ ("x", [ 1.0; 2.0 ]); ("y", [ 4.0; 8.0 ]) ]

let test_series_accessors () =
  Alcotest.(check (float 1e-9)) "cell" 8.0
    (Series.cell sample ~row:"y" ~column:"B");
  Alcotest.(check (list (pair string (float 1e-9)))) "column"
    [ ("x", 1.0); ("y", 4.0) ]
    (Series.column sample "A")

let test_series_geomean () =
  let with_gm = Series.with_geomean sample in
  Alcotest.(check (float 1e-9)) "GM of column A" 2.0
    (Series.cell with_gm ~row:"GM" ~column:"A");
  Alcotest.(check (float 1e-9)) "GM of column B" 4.0
    (Series.cell with_gm ~row:"GM" ~column:"B")

let test_series_validation () =
  Alcotest.check_raises "ragged rows rejected"
    (Invalid_argument "Series.make: ragged row bad") (fun () ->
      ignore (Series.make ~title:"t" ~columns:[ "A"; "B" ] [ ("bad", [ 1.0 ]) ]))

let test_series_render () =
  let text = Ft_util.Table.render (Series.to_table sample) in
  Alcotest.(check bool) "renders values" true
    (Test_helpers.contains text "8.000")

let test_csv_export () =
  let csv = Ft_experiments.Csv.of_series sample in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header" ",A,B" (List.hd lines);
  Alcotest.(check bool) "values present" true
    (Test_helpers.contains csv "8.000000")

let test_csv_escaping () =
  let tricky =
    Series.make ~title:"t" ~columns:[ "a,b"; "q\"q" ] [ ("r", [ 1.0; 2.0 ]) ]
  in
  let csv = Ft_experiments.Csv.of_series tricky in
  Alcotest.(check bool) "comma quoted" true
    (Test_helpers.contains csv "\"a,b\"");
  Alcotest.(check bool) "quote doubled" true
    (Test_helpers.contains csv "\"q\"\"q\"")

(* --- Lab (shared, reduced budget) --------------------------------------- *)

(* A small lab: pool of 60 keeps each cell fast while preserving shape. *)
let lab = lazy (Lab.create ~seed:4 ~pool_size:150 ~top_x:10 ())

let test_lab_caching () =
  let l = Lazy.force lab in
  let program = Option.get (Ft_suite.Suite.find "363.swim") in
  let s1 = Lab.session l Platform.Broadwell program in
  let s2 = Lab.session l Platform.Broadwell program in
  Alcotest.(check bool) "session memoized" true (s1 == s2);
  let r1 = Lab.report l Platform.Broadwell program in
  let r2 = Lab.report l Platform.Broadwell program in
  Alcotest.(check bool) "report memoized" true (r1 == r2)

let test_lab_o3_evaluation () =
  let l = Lazy.force lab in
  let program = Option.get (Ft_suite.Suite.find "363.swim") in
  let input = Ft_suite.Suite.tuning_input Platform.Broadwell program in
  let t = Lab.o3_on l Platform.Broadwell program ~input in
  Alcotest.(check bool) "O3 time positive" true (t > 0.0)

let test_report_shape_invariants () =
  (* The paper's qualitative claims, checked per benchmark on the reduced
     budget: CFR is never (much) below the O3 baseline, FR never beats CFR
     by a margin, and G.Independent dominates G.realized. *)
  let l = Lazy.force lab in
  List.iter
    (fun (p : Program.t) ->
      let r = Lab.report l Platform.Broadwell p in
      let cfr = r.Funcytuner.Tuner.cfr.Funcytuner.Result.speedup in
      let fr = r.Funcytuner.Tuner.fr.Funcytuner.Result.speedup in
      let g = r.Funcytuner.Tuner.greedy in
      Alcotest.(check bool)
        (p.Program.name ^ ": CFR does not lose to O3")
        true (cfr > 0.97);
      Alcotest.(check bool)
        (p.Program.name ^ ": CFR at least matches FR")
        true
        (cfr >= fr -. 0.02);
      (* The "bound" is built from *instrumented, noisy* per-loop
         measurements (as in the paper), so strict dominance only holds up
         to that measurement bias. *)
      Alcotest.(check bool)
        (p.Program.name ^ ": independence bound dominates realization")
        true
        (g.Funcytuner.Greedy.independent_speedup
        >= 0.97 *. g.Funcytuner.Greedy.realized.Funcytuner.Result.speedup))
    Ft_suite.Suite.all

let test_fig5_panel_structure () =
  let l = Lazy.force lab in
  let panel = Ft_experiments.Fig5.panel l Platform.Broadwell in
  Alcotest.(check int) "7 benchmarks + GM" 8 (List.length panel.Series.rows);
  Alcotest.(check (list string)) "columns"
    [ "Random"; "G.realized"; "FR"; "CFR"; "G.Independent" ]
    panel.Series.columns;
  (* GM of CFR beats GM of Random — the paper's headline. *)
  let gm c = Series.cell panel ~row:"GM" ~column:c in
  Alcotest.(check bool) "CFR GM > Random GM" true (gm "CFR" > gm "Random")

let test_fig9_structure () =
  let l = Lazy.force lab in
  let s = Ft_experiments.Casestudy.fig9 l in
  Alcotest.(check int) "five kernels" 5 (List.length s.Series.rows);
  (* acc's aliasing is only unlockable per-loop: CFR must beat Random
     there. *)
  Alcotest.(check bool) "CFR wins acc" true
    (Series.cell s ~row:"acc" ~column:"CFR"
    > Series.cell s ~row:"acc" ~column:"Random")

let test_tab3_contains_o3_row () =
  let l = Lazy.force lab in
  let text = Ft_util.Table.render (Ft_experiments.Casestudy.table3 l) in
  Alcotest.(check bool) "O3 row present" true
    (Test_helpers.contains text "O3 baseline");
  Alcotest.(check bool) "kernel ratios present" true
    (Test_helpers.contains text "6.3")

let test_adaptive_structure () =
  let l = Lazy.force lab in
  let text = Ft_util.Table.render (Ft_experiments.Ablations.quality_vs_budget l) in
  let rows =
    List.filter
      (fun line -> String.length line > 0 && line.[0] = '|')
      (String.split_on_char '\n' text)
  in
  let cells line =
    List.filter (( <> ) "")
      (List.map String.trim (String.split_on_char '|' line))
  in
  (* K = 150: budgets K/16, K/8, K/4, K/2. *)
  Alcotest.(check (list string)) "header"
    [ "Benchmark"; "SH@9"; "SH@18"; "SH@37"; "SH@75"; "CFR (full)" ]
    (cells (List.hd rows));
  Alcotest.(check int) "one row per program"
    (List.length Ft_suite.Suite.all)
    (List.length rows - 1);
  List.iter
    (fun (p : Program.t) ->
      Alcotest.(check bool) (p.Program.name ^ " row") true
        (Test_helpers.contains text ("| " ^ p.Program.name ^ " ")))
    Ft_suite.Suite.all

let test_fig7_row_width () =
  let l = Lazy.force lab in
  let program = Option.get (Ft_suite.Suite.find "363.swim") in
  let input = Ft_suite.Suite.small_input program in
  let row = Ft_experiments.Fig7.row l program ~input in
  Alcotest.(check int) "six comparators" 6 (List.length row);
  List.iter
    (fun v -> Alcotest.(check bool) "positive speedup" true (v > 0.0))
    row

(* --- Faults: the sweep runs on the engines its caller builds ------------- *)

let test_faults_on_callers_engines () =
  let module Engine = Ft_engine.Engine in
  let module Cache = Ft_engine.Cache in
  let fault_seed = 3 in
  let engine_with ~cache faults =
    Engine.create ~cache
      ~policy:{ Engine.default_policy with Engine.faults }
      ()
  in
  let sweep engine =
    Ft_experiments.Faults.run ~engine ~fault_seed ~seed:4 ~pool_size:30 ()
  in
  let shared = Cache.create () and models = ref [] in
  let on_shared =
    sweep (fun faults ->
        models := faults :: !models;
        engine_with ~cache:shared faults)
  in
  let fresh = ref [] in
  let on_fresh =
    sweep (fun faults ->
        let cache = Cache.create () in
        fresh := cache :: !fresh;
        engine_with ~cache faults)
  in
  Alcotest.(check bool) "one call per rate, fault_seed's model at its rate"
    true
    (List.rev !models
    = List.map
        (fun rate ->
          if rate = 0.0 then None
          else Some (Ft_fault.Fault.make ~seed:fault_seed ~rate ()))
        Ft_experiments.Faults.rates);
  Alcotest.(check (list (pair string (list (float 0.0)))))
    "rows = a sweep on fresh caches" on_fresh.Series.rows on_shared.Series.rows;
  let fresh_entries =
    List.fold_left (fun n c -> n + Cache.length c) 0 !fresh
  in
  Alcotest.(check bool)
    (Printf.sprintf "shared cache holds fewer entries (%d) than the fresh \
                     ones together (%d)"
       (Cache.length shared) fresh_entries)
    true
    (Cache.length shared < fresh_entries)

let suite =
  ( "experiments",
    [
      Alcotest.test_case "series accessors" `Quick test_series_accessors;
      Alcotest.test_case "series geomean" `Quick test_series_geomean;
      Alcotest.test_case "series validation" `Quick test_series_validation;
      Alcotest.test_case "series rendering" `Quick test_series_render;
      Alcotest.test_case "csv export" `Quick test_csv_export;
      Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
      Alcotest.test_case "lab caching" `Quick test_lab_caching;
      Alcotest.test_case "lab O3 evaluation" `Quick test_lab_o3_evaluation;
      Alcotest.test_case "faults sweep runs on the caller's engines" `Quick
        test_faults_on_callers_engines;
      Alcotest.test_case "paper shape invariants (all benchmarks)" `Slow
        test_report_shape_invariants;
      Alcotest.test_case "fig5 panel structure" `Slow test_fig5_panel_structure;
      Alcotest.test_case "fig9 structure" `Slow test_fig9_structure;
      Alcotest.test_case "tab3 structure" `Slow test_tab3_contains_o3_row;
      Alcotest.test_case "adaptive structure" `Slow test_adaptive_structure;
      Alcotest.test_case "fig7 row" `Slow test_fig7_row_width;
    ] )
