open Ft_prog
module Tuner = Funcytuner.Tuner
module Result = Funcytuner.Result

let columns = [ "Random"; "G.realized"; "FR"; "CFR"; "G.Independent" ]

let row lab platform program =
  let r = Lab.report lab platform program in
  [
    r.Tuner.random.Result.speedup;
    r.Tuner.greedy.Funcytuner.Greedy.realized.Result.speedup;
    r.Tuner.fr.Result.speedup;
    r.Tuner.cfr.Result.speedup;
    r.Tuner.greedy.Funcytuner.Greedy.independent_speedup;
  ]

let panel lab platform =
  let rows =
    List.map
      (fun (p : Program.t) -> (p.Program.name, row lab platform p))
      Ft_suite.Suite.all
  in
  Series.with_geomean
    (Series.make
       ~title:
         (Printf.sprintf "Fig. 5 (%s): speedup over O3 — %s"
            (Platform.short_name platform)
            (Platform.name platform))
       ~columns rows)
