(** The shared experimental environment.

    One [Lab.t] fixes the master seed, the pool size K and CFR's top-X,
    and memoizes everything expensive — tuning sessions (profile + outline
    + collection), the four §2.2 algorithm runs, OpenTuner runs, trained
    COBAYN models and their inference runs — so that every figure runner
    reuses the same tuned configurations, exactly as the paper evaluates
    one tuning campaign from several angles (Figs. 5–9 share runs). *)

type t

val create :
  ?seed:int ->
  ?pool_size:int ->
  ?top_x:int ->
  ?jobs:int ->
  ?policy:Ft_engine.Engine.policy ->
  ?engine:Ft_engine.Engine.t ->
  unit ->
  t
(** Defaults: seed 42, K = 1000, top-X = 20, jobs 1 (sequential engine).
    All results are bit-identical for any [jobs] value.  [policy] arms the
    lab engine's fault model / timeout / repeats; pass a pre-built
    [engine] instead (e.g. with a checkpoint attached) to override
    everything, in which case [jobs] and [policy] are ignored. *)

val seed : t -> int
val pool_size : t -> int

val engine : t -> Ft_engine.Engine.t
(** The lab-wide evaluation engine: one worker pool, one measurement cache
    and one telemetry record shared by every session. *)

val telemetry : t -> Ft_obs.Telemetry.t
(** Aggregated counters/timers across every experiment run so far (the
    [--stats] source). *)

val session :
  t -> Ft_prog.Platform.t -> Ft_prog.Program.t -> Funcytuner.Tuner.session
(** Cached tuning session on the platform's Table 2 tuning input. *)

val report :
  t -> Ft_prog.Platform.t -> Ft_prog.Program.t -> Funcytuner.Tuner.report
(** Cached {!Funcytuner.Tuner.run_all} results (Random, FR, G, CFR). *)

val opentuner : t -> Ft_prog.Program.t -> Ft_opentuner.Ensemble.t
(** Cached OpenTuner run on Broadwell. *)

val cobayn_model : t -> Ft_cobayn.Features.variant -> Ft_cobayn.Model.t
(** Cached trained model (training happens once per variant). *)

val cobayn :
  t -> Ft_cobayn.Features.variant -> Ft_prog.Program.t -> Funcytuner.Result.t
(** Cached COBAYN inference on Broadwell. *)

val pgo : t -> Ft_prog.Program.t -> Ft_baselines.Pgo_driver.t
(** Cached PGO run on Broadwell. *)

val evaluate_on :
  t ->
  Ft_prog.Platform.t ->
  Ft_prog.Program.t ->
  input:Ft_prog.Input.t ->
  Funcytuner.Result.configuration ->
  float
(** Measured seconds of a tuned configuration on another input (the §4.3
    generalization protocol). *)

val o3_on :
  t ->
  Ft_prog.Platform.t ->
  Ft_prog.Program.t ->
  input:Ft_prog.Input.t ->
  float
(** Noise-free O3 seconds on an arbitrary input. *)

val rng : t -> string -> Ft_util.Rng.t
(** A labelled random stream derived from the lab seed. *)
