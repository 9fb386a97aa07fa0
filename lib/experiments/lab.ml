open Ft_prog
module Tuner = Funcytuner.Tuner
module Rng = Ft_util.Rng

type t = {
  seed : int;
  pool_size : int;
  top_x : int;
  engine : Ft_engine.Engine.t;
  sessions : (string, Tuner.session) Hashtbl.t;
  reports : (string, Tuner.report) Hashtbl.t;
  opentuner_runs : (string, Ft_opentuner.Ensemble.t) Hashtbl.t;
  cobayn_models : (string, Ft_cobayn.Model.t) Hashtbl.t;
  cobayn_runs : (string, Funcytuner.Result.t) Hashtbl.t;
  pgo_runs : (string, Ft_baselines.Pgo_driver.t) Hashtbl.t;
}

(* One engine for the whole lab: the measurement cache is shared by every
   (benchmark, platform) cell — keys embed program, platform and input, so
   cells never collide — and telemetry aggregates across the whole run. *)
let create ?(seed = 42) ?(pool_size = 1000) ?(top_x = 20)
    ?(engine = Ft_engine.Engine.create ()) () =
  {
    seed;
    pool_size;
    top_x;
    engine;
    sessions = Hashtbl.create 32;
    reports = Hashtbl.create 32;
    opentuner_runs = Hashtbl.create 8;
    cobayn_models = Hashtbl.create 4;
    cobayn_runs = Hashtbl.create 32;
    pgo_runs = Hashtbl.create 8;
  }

let pool_size t = t.pool_size
let rng t label = Rng.of_label (Rng.create t.seed) label

let memo table key compute =
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
      let v = compute () in
      Hashtbl.replace table key v;
      v

let cell_key platform (program : Program.t) =
  Platform.short_name platform ^ "/" ^ program.Program.name

let session t platform program =
  memo t.sessions (cell_key platform program) (fun () ->
      let input = Ft_suite.Suite.tuning_input platform program in
      Tuner.make_session ~pool_size:t.pool_size ~engine:t.engine ~platform
        ~program ~input ~seed:t.seed ())

let report t platform program =
  memo t.reports (cell_key platform program) (fun () ->
      Tuner.run_all ~top_x:t.top_x (session t platform program))

let opentuner t (program : Program.t) =
  memo t.opentuner_runs program.Program.name (fun () ->
      let s = session t Platform.Broadwell program in
      Ft_opentuner.Ensemble.run s.Tuner.ctx)

let cobayn_model t variant =
  memo t.cobayn_models (Ft_cobayn.Features.variant_name variant) (fun () ->
      let toolchain = Ft_machine.Toolchain.make Platform.Broadwell in
      Ft_cobayn.Model.train ~toolchain ~variant ~corpus_seed:t.seed ())

let cobayn t variant (program : Program.t) =
  let key =
    Ft_cobayn.Features.variant_name variant ^ "/" ^ program.Program.name
  in
  memo t.cobayn_runs key (fun () ->
      let model = cobayn_model t variant in
      let s = session t Platform.Broadwell program in
      Ft_cobayn.Model.tune model s.Tuner.ctx)

let pgo t (program : Program.t) =
  memo t.pgo_runs program.Program.name (fun () ->
      let toolchain = Ft_machine.Toolchain.make Platform.Broadwell in
      let input = Ft_suite.Suite.tuning_input Platform.Broadwell program in
      Ft_baselines.Pgo_driver.run ~toolchain ~program ~input
        ~rng:(rng t ("pgo:" ^ program.Program.name))
        ())

let evaluate_on t platform program ~input configuration =
  let s = session t platform program in
  Tuner.evaluate_configuration s ~input
    ~rng:(rng t ("eval:" ^ cell_key platform program ^ ":" ^ input.Input.label))
    configuration

let o3_on t platform program ~input =
  Tuner.o3_seconds (session t platform program) ~input
