(** The parallel evaluation engine: how (build, run) jobs execute.

    Every search in the paper is embarrassingly parallel — the §2.2.2
    collection framework performs K = 1000 independent instrumented builds,
    and CFR links and measures 1000 more per-module configurations.  The
    engine owns that loop for all of them:

    - jobs run on a fixed-size {!Pool} of domains ([jobs = 1], the
      default, is strictly sequential);
    - every job carries {e its own} RNG stream for measurement noise, so
      results are bit-identical at any worker count ({e deterministic
      parallelism} — the correctness property [test/suite_engine.ml]
      checks explicitly);
    - noise-free summaries are memoized in a content-addressed {!Cache}
      (shareable across searches and persistable across runs);
    - each fact of a job — cache lookup, build, run, fault, retry,
      quarantine decision, timer accumulation — is reported once, as an
      {!Ft_obs.Event} counted by {!Ft_obs.Telemetry.count} and recorded
      in the attached trace, if any.

    Determinism argument, in full: a [build] value determines the binary
    (compilation and linking are pure), and the binary plus the input
    determines the noise-free {!Ft_machine.Exec.summary} (evaluation is
    pure).  The only stochastic step — measurement noise — is drawn from
    the job's private [rng], never from shared state.  Hence each job's
    measurement is a pure function of the job description, and the pool
    only ever changes {e when} a job runs, not what it computes.

    {2 Fault tolerance}

    A {!policy} can arm a deterministic fault model
    ({!Ft_fault.Fault}) and a recovery discipline around it: compile
    failures and miscompiles are quarantined immediately (retrying cannot
    fix a binary), transient crashes and timeouts are retried up to
    [max_retries] times with capped exponential backoff (simulated — the
    wait is recorded on the ["backoff"] timer, never slept), and repeated
    measurements ([repeats]) are reduced to a robust representative that
    rejects heavy-tailed outliers.  Because injected faults are pure
    functions of the fault seed and the build's cache key, every outcome —
    including which attempt a transient fault clears on — is bit-identical
    at any [jobs] count, and a {!Quarantine} hit returns exactly what
    re-evaluation would have computed. *)

type build =
  | Uniform of { cv : Ft_flags.Cv.t; instrumented : bool }
      (** traditional whole-program build: one CV for every region *)
  | Assigned of {
      assignment : (string * Ft_flags.Cv.t) list;
      instrumented : bool;
    }
      (** per-module build of an outlined program; the assignment must
          cover every module of the outline handed to the engine call *)

type job = { build : build; rng : Ft_util.Rng.t }
(** One unit of work: a build plus the private stream its measurement
    noise is drawn from. *)

type policy = {
  faults : Ft_fault.Fault.t option;
      (** arm the fault model, or [None] for the perfect world (default) *)
  timeout_s : float;  (** budget a (simulated) run may not exceed *)
  max_retries : int;  (** attempts after the first, for transient faults *)
  backoff_base_s : float;  (** first retry delay (simulated) *)
  backoff_cap_s : float;  (** backoff ceiling (simulated) *)
  repeats : int;  (** measurements per job, robustly aggregated *)
}

val default_policy : policy
(** No faults, 3600 s timeout, 2 retries, 0.1 s base / 5 s cap backoff,
    1 repeat — under which the engine is bit-identical to the
    pre-fault-layer engine. *)

type job_outcome =
  | Ok of Ft_machine.Exec.measurement  (** a valid, validated measurement *)
  | Build_failed of string  (** compiler ICE; payload is the module *)
  | Crashed of string  (** runtime crash surviving all retries *)
  | Wrong_answer  (** ran, but output validation failed (miscompile) *)
  | Timed_out of float  (** killed at this simulated elapsed seconds *)
  | Worker_crashed of string
      (** forked backends only: the {e worker process} evaluating this
          job died (signal, nonzero exit, torn IPC frame) on every
          attempt the retry budget allowed; payload is the last crash
          detail.  Quarantined as [Crashed ("worker: " ^ detail)]. *)

val outcome_to_string : job_outcome -> string
(** Short human-readable rendering, e.g. ["crashed(persistent crash)"]. *)

type t

val create :
  ?jobs:int ->
  ?backend:Backend.t ->
  ?kill_workers_after:int ->
  ?nodes:int ->
  ?cache:Cache.t ->
  ?telemetry:Ft_obs.Telemetry.t ->
  ?policy:policy ->
  ?quarantine:Quarantine.t ->
  ?checkpoint:Checkpoint.t ->
  ?trace:Ft_obs.Trace.t ->
  unit ->
  t
(** [jobs] defaults to 1 (sequential).  [backend] (default
    {!Backend.Domains}) selects the execution substrate for batches.
    Both forked backends run a batch on the one {!Procpool} of forked
    workers — {!Backend.Processes} with [jobs] workers,
    {!Backend.Sharded} with [nodes] (default 1) — whose crashes surface
    as typed [Worker_crashed] outcomes instead of taking the search
    down.  Workers are fed contiguous chunks of the batch; each chunk
    runs on one shadow engine and ships home one delta (cache and
    quarantine news, a telemetry snapshot, trace stamps), which the
    parent merges before recording the chunk's outcomes.
    [kill_workers_after] arms the deterministic chaos hook on either
    forked backend: on each batch's {e first} round, the worker that
    starts the batch's job [k] (counting from 0) SIGKILLs itself — the
    crash path's test harness; a batch of [k] jobs or fewer is never
    killed.  A fresh cache, telemetry and quarantine are allocated
    unless shared ones are passed (e.g. one cache for a whole experiment
    lab, or a quarantine reloaded from a checkpoint).  When a
    [checkpoint] is attached, its log takes the new cache and quarantine
    entries as state accumulates and on {!flush_checkpoint}.  Every
    cache lookup, build, run, fault, retry, quarantine decision and timer
    accumulation is one typed {!Ft_obs.Event}, counted into the
    telemetry and, when a [trace] is attached, recorded there too, along
    with each job's start and finish.  With no trace nothing is recorded,
    and only the counted events are built.
    @raise Invalid_argument if [jobs < 1], [nodes < 1],
    [policy.repeats < 1], [policy.max_retries < 0],
    [policy.timeout_s <= 0] or [kill_workers_after < 0]. *)

val cache : t -> Cache.t
val telemetry : t -> Ft_obs.Telemetry.t
val policy : t -> policy
val quarantine : t -> Quarantine.t
val trace : t -> Ft_obs.Trace.t option

val timed : t -> string -> (unit -> 'a) -> 'a
(** [timed t name f] runs [f] and reports its elapsed time (on the
    monotonic {!Ft_util.Clock}) as one {!Ft_obs.Event.Timer} event:
    counted onto the telemetry timer [name], and recorded by a wall-clock
    trace (a logical one drops it).  Used by the engine for
    ["build"]/["run"] and by the search layers for their phase
    timers. *)

val flush_checkpoint : t -> unit
(** Sync the checkpoint log now (no-op without an attached
    checkpoint).  Called by the CLI at the end of a run and from its
    simulated-kill hook. *)

val key :
  toolchain:Ft_machine.Toolchain.t ->
  program:Ft_prog.Program.t ->
  input:Ft_prog.Input.t ->
  build ->
  string
(** The content-addressed cache key of a build in an execution context
    (exposed for tests; also the structural key faults are drawn from):
    the MD5 hex digest of a canonical description of the compiler,
    platform, program, input geometry, build kind, instrumentation flag
    and CVs, with an assignment's modules sorted by name.  Its bytes are
    pinned, since every cache on disk was keyed by them. *)

val summary :
  t ->
  toolchain:Ft_machine.Toolchain.t ->
  ?outline:Ft_outline.Outline.t ->
  program:Ft_prog.Program.t ->
  input:Ft_prog.Input.t ->
  build ->
  Ft_machine.Exec.summary
(** Noise-free summary of one build, through the cache.  This and the
    other single-evaluation functions below resolve their context as a
    batch does (see {!try_measure_batch}); each domain keeps the last
    context it resolved, compared by physical equality of its parts, so
    a search that evaluates one job at a time in one context resolves it
    once.
    @raise Invalid_argument for an [Assigned] build without [?outline], or
    whose assignment misses one of the outline's modules. *)

val evaluate :
  t ->
  toolchain:Ft_machine.Toolchain.t ->
  ?outline:Ft_outline.Outline.t ->
  program:Ft_prog.Program.t ->
  input:Ft_prog.Input.t ->
  build ->
  float
(** [(summary ...).sum_total_s]: the cached noise-free end-to-end time.
    Never faulted — searches use it to confirm a winner. *)

val try_measure_one :
  t ->
  toolchain:Ft_machine.Toolchain.t ->
  ?outline:Ft_outline.Outline.t ->
  program:Ft_prog.Program.t ->
  input:Ft_prog.Input.t ->
  job ->
  job_outcome
(** One job's outcome: quarantine lookup, per-module ICE check,
    retry/backoff loop, output validation and robust repeat aggregation,
    never raising for an injected fault.  [Ok] carries one noisy
    measurement, drawn from the job's own stream on top of the cached
    summary.  Ticks progress once, as a batch does per job. *)

val try_measure_batch :
  t ->
  toolchain:Ft_machine.Toolchain.t ->
  ?outline:Ft_outline.Outline.t ->
  program:Ft_prog.Program.t ->
  input:Ft_prog.Input.t ->
  job array ->
  job_outcome array
(** Measure a batch on the pool.  Every job yields its own
    {!job_outcome} in submission order, bit-identical for any [jobs]
    setting {e and any backend} (see the determinism argument above),
    and progress ticks fire per completed job.  What the context alone
    decides is resolved once per batch: the key's head and, given the
    outline, where each module lands in the key.  An assignment that
    lists the outline's modules in outline order, as every search builds
    them, then has its key written in place and digested without a sort,
    and its module CVs read by position.  Injected faults (and
    even unexpected worker exceptions, recorded as [Crashed]) never
    poison sibling jobs.  On the forked backends a {e dying worker}
    doesn't either: the job it was running is re-run on a fresh worker
    up to [policy.max_retries] times (bit-identically, by determinism),
    then surfaces as [Worker_crashed]. *)
