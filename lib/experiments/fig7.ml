open Ft_prog
module Result = Funcytuner.Result
module Tuner = Funcytuner.Tuner
module Exec = Ft_machine.Exec

let columns = [ "Random"; "G.realized"; "COBAYN"; "PGO"; "OpenTuner"; "CFR" ]

let pgo_seconds lab (program : Program.t) ~input =
  let toolchain = Ft_machine.Toolchain.make Platform.Broadwell in
  let tuning = Ft_suite.Suite.tuning_input Platform.Broadwell program in
  let binary =
    Ft_baselines.Pgo_driver.tuned_binary ~toolchain ~program ~input:tuning
  in
  (Exec.measure ~arch:toolchain.Ft_machine.Toolchain.arch ~input
     ~rng:(Lab.rng lab ("fig7:pgo:" ^ program.Program.name ^ input.Input.label))
     binary)
    .Exec.elapsed_s

let row lab (program : Program.t) ~input =
  let o3 = Lab.o3_on lab Platform.Broadwell program ~input in
  let eval configuration =
    o3 /. Lab.evaluate_on lab Platform.Broadwell program ~input configuration
  in
  let report = Lab.report lab Platform.Broadwell program in
  [
    eval report.Tuner.random.Result.configuration;
    eval
      report.Tuner.greedy.Funcytuner.Greedy.realized.Result.configuration;
    eval
      (Lab.cobayn lab Ft_cobayn.Features.Static program).Result.configuration;
    o3 /. pgo_seconds lab program ~input;
    eval
      (Lab.opentuner lab program).Ft_opentuner.Ensemble.result
        .Result.configuration;
    eval report.Tuner.cfr.Result.configuration;
  ]

let panel lab ~small =
  let rows =
    List.map
      (fun (p : Program.t) ->
        let input =
          if small then Ft_suite.Suite.small_input p
          else Ft_suite.Suite.large_input p
        in
        (p.Program.name, row lab p ~input))
      Ft_suite.Suite.all
  in
  Series.with_geomean
    (Series.make
       ~title:
         (Printf.sprintf
            "Fig. 7%s: generalization to %s inputs on Broadwell (speedup \
             over O3)"
            (if small then "a" else "b")
            (if small then "small" else "large"))
       ~columns rows)
