(** The server's bridge to the tuning engine.

    A runner validates specs against the suite catalog and the search
    table ({!Funcytuner.Tuner.searches}), and runs each search through
    {!Funcytuner.Tuner.search}, as a solo [funcy tune] does.  Two
    flavours:

    - {!make}: one shared {!Ft_engine.Engine} across requests (sound
      because the determinism contract makes search outcomes independent
      of cache warmth) — the lightweight mode used when the daemon has
      no durable state directory.
    - {!make_durable}: a fresh engine {e per search}, wired to a
      per-fingerprint {!Ft_engine.Checkpoint} under the daemon's state
      directory.  A daemon killed mid-search leaves the search's
      checkpoint log behind; the restarted daemon's re-run of the same
      fingerprint loads it and fast-forwards to a byte-identical result
      instead of starting over.

    Tests substitute a fake runner to exercise the server's coalescing,
    recovery and cancellation without real searches. *)

exception Cancelled of string
(** The cancellation signal — an alias of {!Ft_engine.Pool.Abort} (the
    implementation rebinds it, so catching either name works).  The
    server raises it from inside [tick] when a running group has no
    subscribers left; it is {!Ft_engine.Pool.fatal}, so every engine
    layer lets it unwind — a run is cancelled, never recorded as a
    per-job crash. *)

type t = {
  validate : Protocol.tune_spec -> (unit, string) result;
      (** Cheap admission check: the failure string becomes the
          {!Protocol.Unsupported} reject reason. *)
  run :
    Protocol.tune_spec ->
    fingerprint:string ->
    tick:(unit -> unit) ->
    (Scheduler.outcome, string) result;
      (** Execute one search.  [tick] is invoked after every completed
          engine job — the server's window for draining sockets,
          sweeping deadlines and cancelling abandoned runs mid-search.
          Per-spec failures are [Error]; fatal exceptions (including
          {!Cancelled}) propagate. *)
}

val make : engine:Ft_engine.Engine.t -> t
(** A shared-engine runner.  [run] installs a telemetry progress
    callback for the duration of each search (restoring none after) and
    renders outcomes with {!Ft_core.Result.render}. *)

val make_durable :
  make_engine:
    (?cache:Ft_engine.Cache.t ->
    ?quarantine:Ft_engine.Quarantine.t ->
    ?checkpoint:Ft_engine.Checkpoint.t ->
    unit ->
    Ft_engine.Engine.t) ->
  state_dir:string ->
  ?checkpoint_every:int ->
  unit ->
  t
(** A crash-safe runner: each [run] builds a fresh engine through
    [make_engine] with a checkpoint log at
    [state_dir/<fingerprint>.snap] synced every [checkpoint_every]
    (default 32) state-changing events, resuming from an existing log
    first.  Once the search completes the log and its [.lock] sidecar
    are removed (the journal's [completed] record is the durable result —
    see {!Journal}); a search that returns [Error] keeps its log. *)
