(* Tests for ft_caliper (annotation API, reports, profiler) and
   ft_outline (hot-loop detection and module partitioning). *)

open Ft_prog
module Annotation = Ft_caliper.Annotation
module Report = Ft_caliper.Report
module Profiler = Ft_caliper.Profiler
module Outline = Ft_outline.Outline
module Toolchain = Ft_machine.Toolchain

let toolchain = Toolchain.make Platform.Broadwell
let program = Ft_suite.Cloverleaf.program
let input = Ft_suite.Suite.tuning_input Platform.Broadwell program

(* --- Annotation --------------------------------------------------------- *)

let test_annotation_basic () =
  let ctx = Annotation.create () in
  Annotation.begin_region ctx "outer";
  Annotation.advance ctx 1.0;
  Annotation.begin_region ctx "inner";
  Annotation.advance ctx 2.0;
  Annotation.end_region ctx "inner";
  Annotation.advance ctx 0.5;
  Annotation.end_region ctx "outer";
  Alcotest.(check (float 1e-9)) "inclusive outer" 3.5
    (Annotation.inclusive_s ctx "outer");
  Alcotest.(check (float 1e-9)) "inclusive inner" 2.0
    (Annotation.inclusive_s ctx "inner");
  Alcotest.(check (float 1e-9)) "unknown region 0" 0.0
    (Annotation.inclusive_s ctx "nope")

let test_annotation_nesting_checked () =
  let ctx = Annotation.create () in
  Annotation.begin_region ctx "a";
  Annotation.begin_region ctx "b";
  Alcotest.check_raises "mismatched end"
    (Invalid_argument
       "Annotation.end_region: expected innermost region \"b\", got \"a\"")
    (fun () -> Annotation.end_region ctx "a");
  Annotation.end_region ctx "b";
  Annotation.end_region ctx "a";
  Alcotest.check_raises "no open region"
    (Invalid_argument "Annotation.end_region: no open region") (fun () ->
      Annotation.end_region ctx "a")

let test_annotation_with_region_exception_safe () =
  let ctx = Annotation.create () in
  (try
     Annotation.with_region ctx "risky" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (list string)) "stack unwound" []
    (Annotation.open_regions ctx)

let test_annotation_negative_rejected () =
  let ctx = Annotation.create () in
  Alcotest.check_raises "negative duration"
    (Invalid_argument "Annotation.advance: negative duration") (fun () ->
      Annotation.advance ctx (-1.0))

let test_annotation_to_report () =
  let ctx = Annotation.create () in
  Annotation.with_region ctx "hot" (fun () -> Annotation.advance ctx 9.0);
  let report = Annotation.to_report ~total_s:10.0 ctx in
  Alcotest.(check (float 1e-9)) "loop time" 9.0
    (Option.get (Report.loop_time report "hot"));
  Alcotest.(check (float 1e-9)) "derived other" 1.0 (Report.other_s report)

(* --- Report -------------------------------------------------------------- *)

let sample_report =
  { Report.total_s = 10.0; loop_s = [ ("a", 4.0); ("b", 0.5); ("c", 0.05) ] }

let test_report_ratio () =
  Alcotest.(check (float 1e-9)) "ratio" 0.4
    (Option.get (Report.ratio sample_report "a"));
  Alcotest.(check bool) "missing" true (Report.ratio sample_report "z" = None)

let test_report_hot_loops () =
  Alcotest.(check (list string)) "1% threshold, hottest first" [ "a"; "b" ]
    (Report.hot_loops ~threshold:0.01 sample_report);
  Alcotest.(check (list string)) "higher threshold" [ "a" ]
    (Report.hot_loops ~threshold:0.2 sample_report)

let test_report_other_clamped () =
  let r = { Report.total_s = 1.0; loop_s = [ ("a", 1.2) ] } in
  Alcotest.(check (float 1e-9)) "subtraction clamped at 0" 0.0
    (Report.other_s r)

let test_profiler_run () =
  let report =
    Profiler.run ~toolchain ~program ~input ~rng:(Ft_util.Rng.create 1) ()
  in
  Alcotest.(check int) "every loop sampled" (Program.loop_count program)
    (List.length report.Report.loop_s);
  Alcotest.(check bool) "derived residual is large for Cloverleaf" true
    (Report.other_s report /. report.Report.total_s > 0.3)

let test_baseline_seconds_in_band () =
  List.iter
    (fun (p : Program.t) ->
      List.iter
        (fun platform ->
          let tc = Toolchain.make platform in
          let i = Ft_suite.Suite.tuning_input platform p in
          let t = Profiler.baseline_seconds ~toolchain:tc ~program:p ~input:i in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s: %.1f s within the paper's <40s rule"
               p.Program.name (Platform.short_name platform) t)
            true
            (t > 3.0 && t < 40.0))
        Platform.all)
    Ft_suite.Suite.all

(* --- Outline --------------------------------------------------------------- *)

let outline () =
  Outline.outline ~toolchain ~program ~input ~rng:(Ft_util.Rng.create 2) ()

let test_outline_threshold () =
  let o = outline () in
  (* update_halo was calibrated to ~0.7% — below the 1% rule. *)
  Alcotest.(check bool) "update_halo stays cold" true
    (List.mem "update_halo" o.Outline.cold);
  Alcotest.(check bool) "dt outlined" true (List.mem "dt" o.Outline.hot);
  Alcotest.(check int) "partition covers all loops"
    (Program.loop_count program)
    (List.length o.Outline.hot + List.length o.Outline.cold)

let test_outline_module_names () =
  let o = outline () in
  let names = Outline.module_names o in
  Alcotest.(check bool) "residual first" true
    (List.hd names = Outline.residual_module);
  Alcotest.(check int) "J+1 modules" (List.length o.Outline.hot + 1)
    (Outline.module_count o)

let test_outline_cv_routing () =
  let o = outline () in
  let special = Ft_flags.Cv.set Ft_flags.Cv.o3 Ft_flags.Flag.Unroll 3 in
  let assignment name =
    if name = "dt" then special else Ft_flags.Cv.o3
  in
  let binary = Outline.compile ~toolchain o ~assignment () in
  let cv_of region =
    (List.find
       (fun (r : Ft_compiler.Linker.region) ->
         r.Ft_compiler.Linker.cunit.Ft_compiler.Cunit.region_name = region)
       binary.Ft_compiler.Linker.regions)
      .Ft_compiler.Linker.cunit.Ft_compiler.Cunit.cv
  in
  Alcotest.(check bool) "hot loop uses its own module's CV" true
    (Ft_flags.Cv.equal (cv_of "dt") special);
  Alcotest.(check bool) "cold loop uses the residual CV" true
    (Ft_flags.Cv.equal (cv_of "update_halo") Ft_flags.Cv.o3)

let test_outline_of_report_custom_threshold () =
  let o = Outline.of_report ~program ~threshold:0.05 (
    Profiler.run ~toolchain ~program ~input ~rng:(Ft_util.Rng.create 3) ())
  in
  (* Only dt exceeds 5% of Cloverleaf's runtime. *)
  Alcotest.(check (list string)) "only dt above 5%" [ "dt" ] o.Outline.hot

let test_outline_compile_links_whole_program () =
  let o = outline () in
  let binary =
    Outline.compile ~toolchain o ~assignment:(fun _ -> Ft_flags.Cv.o3) ()
  in
  Alcotest.(check bool) "uniform assignment links uniformly" true
    binary.Ft_compiler.Linker.uniform

let suite =
  ( "caliper+outline",
    [
      Alcotest.test_case "annotation basics" `Quick test_annotation_basic;
      Alcotest.test_case "annotation nesting" `Quick
        test_annotation_nesting_checked;
      Alcotest.test_case "annotation exception-safety" `Quick
        test_annotation_with_region_exception_safe;
      Alcotest.test_case "annotation negative time" `Quick
        test_annotation_negative_rejected;
      Alcotest.test_case "annotation to report" `Quick
        test_annotation_to_report;
      Alcotest.test_case "report ratios" `Quick test_report_ratio;
      Alcotest.test_case "hot loop selection" `Quick test_report_hot_loops;
      Alcotest.test_case "residual clamped" `Quick test_report_other_clamped;
      Alcotest.test_case "profiler run" `Quick test_profiler_run;
      Alcotest.test_case "O3 runtimes within 40s (all cells)" `Slow
        test_baseline_seconds_in_band;
      Alcotest.test_case "1% outlining threshold" `Quick
        test_outline_threshold;
      Alcotest.test_case "module naming" `Quick test_outline_module_names;
      Alcotest.test_case "cv routing" `Quick test_outline_cv_routing;
      Alcotest.test_case "custom threshold" `Quick
        test_outline_of_report_custom_threshold;
      Alcotest.test_case "outlined compile" `Quick
        test_outline_compile_links_whole_program;
    ] )
