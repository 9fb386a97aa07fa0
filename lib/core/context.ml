module Rng = Ft_util.Rng
module Toolchain = Ft_machine.Toolchain
module Engine = Ft_engine.Engine
module Trace = Ft_obs.Trace

type t = {
  toolchain : Toolchain.t;
  program : Ft_prog.Program.t;
  input : Ft_prog.Input.t;
  pool : Ft_flags.Cv.t array;
  baseline_s : float;
  rng : Rng.t;
  engine : Engine.t;
}

let make ?(pool_size = 1000) ?(engine = Engine.create ()) ~toolchain ~program
    ~input ~seed () =
  let rng = Rng.create seed in
  let pool = Ft_flags.Space.sample_pool (Rng.of_label rng "pool") pool_size in
  let baseline_s =
    Trace.span (Engine.trace engine) Ft_obs.Event.Profile (fun () ->
        Ft_caliper.Profiler.baseline_seconds ~toolchain ~program ~input)
  in
  { toolchain; program; input; pool; baseline_s; rng; engine }

let stream t label = Rng.of_label t.rng label
let engine t = t.engine
let telemetry t = Engine.telemetry t.engine
let trace t = Engine.trace t.engine

let try_measure_uniform t ~rng cv =
  Engine.try_measure_one t.engine ~toolchain:t.toolchain ~program:t.program
    ~input:t.input
    { Engine.build = Engine.Uniform { cv; instrumented = false }; rng }

let evaluate_uniform t cv =
  Engine.evaluate t.engine ~toolchain:t.toolchain ~program:t.program
    ~input:t.input
    (Engine.Uniform { cv; instrumented = false })

let speedup t seconds = t.baseline_s /. seconds
