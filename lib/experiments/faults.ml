open Ft_prog
module Tuner = Funcytuner.Tuner
module Result = Funcytuner.Result

let rates = [ 0.0; 0.05; 0.1; 0.2; 0.3 ]
let columns = [ "Random"; "FR"; "CFR" ]

let row ~engine ~fault_seed ~seed ~pool_size rate =
  let engine =
    engine
      (if rate = 0.0 then None
       else Some (Ft_fault.Fault.make ~seed:fault_seed ~rate ()))
  in
  let program = Option.get (Ft_suite.Suite.find "363.swim") in
  let platform = Platform.Broadwell in
  let input = Ft_suite.Suite.tuning_input platform program in
  let session =
    Tuner.make_session ~pool_size ~engine ~platform ~program ~input ~seed ()
  in
  let ctx = session.Tuner.ctx in
  let random = Funcytuner.Random_search.run ctx in
  let fr = Funcytuner.Fr.run ctx session.Tuner.outline in
  let cfr = Tuner.run_cfr session in
  [ random.Result.speedup; fr.Result.speedup; cfr.Result.speedup ]

let run ~engine ?(fault_seed = 1) ~seed ~pool_size () =
  let rows =
    List.map
      (fun rate ->
        ( Printf.sprintf "%g%%" (rate *. 100.0),
          row ~engine ~fault_seed ~seed ~pool_size rate ))
      rates
  in
  Series.make
    ~title:
      "Faults: swim/bdw speedup over O3 as the injected fault rate grows \
       (searches skip quarantined CVs and return their best valid CV)"
    ~columns rows
