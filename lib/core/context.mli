(** A tuning session: one program, one platform, one input, one seed.

    Everything the four search algorithms of §2.2 need — the tool-chain,
    the K = 1000 pre-sampled CV pool, the O3 baseline time T_O3 and the
    derived random streams — bundled so algorithm implementations stay
    small and deterministic. *)

type t = {
  toolchain : Ft_machine.Toolchain.t;
  program : Ft_prog.Program.t;
  input : Ft_prog.Input.t;
  pool : Ft_flags.Cv.t array;  (** the pre-sampled CV pool (step 1 of
                                   Figs. 2–4); length = [pool_size] *)
  baseline_s : float;  (** T_O3: noise-free O3 end-to-end runtime *)
  rng : Ft_util.Rng.t;  (** master stream; use {!stream} for children *)
  engine : Ft_engine.Engine.t;
      (** the evaluation engine all of this session's builds and runs go
          through — owns the worker pool, measurement cache and
          telemetry *)
}

val make :
  ?pool_size:int ->
  ?engine:Ft_engine.Engine.t ->
  toolchain:Ft_machine.Toolchain.t ->
  program:Ft_prog.Program.t ->
  input:Ft_prog.Input.t ->
  seed:int ->
  unit ->
  t
(** Build a session.  [pool_size] defaults to 1000 (the paper's K).  The
    pool is drawn from a stream derived from [seed] alone, so two sessions
    with the same seed share the same pool regardless of evaluation
    order.  [engine] defaults to a fresh sequential {!Ft_engine.Engine};
    pass one to choose the workers and backend, or to share one engine —
    cache and telemetry included — across sessions.  Results are
    independent of the engine's configuration. *)

val stream : t -> string -> Ft_util.Rng.t
(** A labelled child stream (e.g. ["fr"], ["cfr:measure"]), independent of
    all other labels. *)

val engine : t -> Ft_engine.Engine.t

val telemetry : t -> Ft_obs.Telemetry.t
(** The session engine's telemetry (the [--stats] source). *)

val trace : t -> Ft_obs.Trace.t option
(** The session engine's trace buffer, if one is attached ([--trace]). *)

val try_measure_uniform :
  t -> rng:Ft_util.Rng.t -> Ft_flags.Cv.t -> Ft_engine.Engine.job_outcome
(** Compile the whole program with one CV (traditional model), run it on
    the session input and return the outcome: [Ok] carries the noisy
    end-to-end measurement.  Under an armed fault model the CV may fail
    to build, crash, miscompile or time out; searches treat any non-[Ok]
    outcome as an unusable configuration rather than an exception. *)

val evaluate_uniform : t -> Ft_flags.Cv.t -> float
(** Noise-free runtime of a whole-program build — used to {e report} a
    search's winner: selection happens on noisy measurements (as on real
    hardware), but the figure-of-merit is the re-measured stable time, as
    the paper's 10-run methodology implies. *)

val speedup : t -> float -> float
(** [speedup t seconds] = T_O3 / seconds. *)
