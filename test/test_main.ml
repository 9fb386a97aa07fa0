(* Test entry point: one Alcotest suite per library. *)

let () =
  Alcotest.run "funcytuner"
    [
      Suite_util.suite;
      Suite_flags.suite;
      Suite_prog.suite;
      Suite_suite.suite;
      Suite_benchmarks.suite;
      Suite_compiler.suite;
      Suite_machine.suite;
      Suite_caliper_outline.suite;
      Suite_engine.suite;
      Suite_codec.suite;
      Suite_fault.suite;
      Suite_selfcheck.suite;
      Suite_core.suite;
      Suite_baselines.suite;
      Suite_opentuner.suite;
      Suite_cobayn.suite;
      Suite_experiments.suite;
      Suite_obs.suite;
      Suite_serve.suite;
      Suite_golden.suite;
      Suite_integration.suite;
    ]
