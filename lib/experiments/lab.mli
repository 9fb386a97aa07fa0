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
  ?engine:Ft_engine.Engine.t ->
  unit ->
  t
(** Defaults: seed 42, K = 1000, top-X = 20 and a fresh sequential
    engine.  Every session runs on [engine], so the lab shares one worker
    pool, one measurement cache and one telemetry record; its workers,
    backend and fault policy are the engine's, and results are
    bit-identical for any workers and backend. *)

val pool_size : t -> int

val session :
  t -> Ft_prog.Platform.t -> Ft_prog.Program.t -> Funcytuner.Tuner.session
(** Cached tuning session on the platform's Table 2 tuning input. *)

val report :
  t -> Ft_prog.Platform.t -> Ft_prog.Program.t -> Funcytuner.Tuner.report
(** Cached {!Funcytuner.Tuner.run_all} results (Random, FR, G, CFR). *)

val opentuner : t -> Ft_prog.Program.t -> Ft_opentuner.Ensemble.t
(** Cached OpenTuner run on Broadwell. *)

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
