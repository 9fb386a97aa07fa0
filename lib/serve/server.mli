(** The tuning-as-a-service daemon.

    One single-threaded event loop over a Unix-domain socket: clients
    speak {!Protocol} (v1 or v2) in {!Ft_framing.Framing} frames,
    requests coalesce in a {!Scheduler}, and searches execute one at a
    time through a {!Runner}.  Sockets are drained both between groups
    and {e during} a search — the runner's [tick] callback re-enters the
    drain (serialized by a mutex, since engine progress callbacks may
    arrive from worker domains) — so a request arriving mid-search for
    the in-flight fingerprint still joins that search's group.

    Lifecycle per tune request:
    receive → [Admitted]/[Coalesced]/[Result (cached)]/[Rejected] →
    [Started] when its group is picked → [Progress] heartbeats →
    terminal [Result] (or [Server_error]).  A client that disconnects
    while waiting is dropped from its group.

    {2 Crash safety}

    With [state_dir] set, the daemon keeps a write-ahead {!Journal}
    there: every [Fresh]/[Joined] request is journalled {e before} its
    acknowledgement is written, group completions are journalled before
    results are delivered, and on boot the journal is replayed —
    completed outcomes seed the scheduler memo, unfinished requests are
    re-enqueued as {e ghost} members (no live socket; they hold their
    group open so the work runs to completion, and their clients collect
    the result from the memo by resending the same request), and a
    fingerprint whose run crashed the daemon [poison_threshold] times is
    quarantined: all later submissions get the typed
    {!Protocol.Poisoned} rejection instead of crashing the daemon again.
    Pair [state_dir] with {!Runner.make_durable} and a restarted daemon
    additionally resumes a half-finished search from its last
    checkpointed evaluation.

    {2 Deadlines and cancellation}

    A v2 request may carry [deadline_ms]; an expired member is answered
    with {!Protocol.Deadline_exceeded} at the next sweep (every tick and
    every idle-loop turn).  A group whose members {e all} disconnected
    or expired is abandoned at the next evaluation boundary
    ({!Runner.Cancelled}) rather than searched to completion.

    Shutdown: a [Shutdown] request (answered with [Bye]) or
    SIGTERM/SIGINT puts the scheduler into draining — new work is
    refused, queued groups run to completion — then the loop exits. *)

type config = {
  socket_path : string;
  max_queue : int;  (** admission bound on waiting requests *)
  backlog : int;  (** [Unix.listen] backlog *)
  progress_every : int;
      (** engine jobs between [Progress] heartbeats (and socket drains
          are attempted on every job regardless) *)
  state_dir : string option;
      (** where the write-ahead journal lives (created if absent);
          [None] runs without durability *)
  die_after_requests : int option;
      (** deterministic chaos hook: SIGKILL the process the moment the
          Nth accepted request of this boot has been acknowledged *)
  poison_threshold : int;
      (** journalled daemon crashes during one fingerprint's run before
          that fingerprint is quarantined *)
}

val default_config : socket_path:string -> config
(** [max_queue] 256, [backlog] 64, [progress_every] 25, no [state_dir],
    no chaos, [poison_threshold] 3. *)

val serve :
  ?trace:Ft_obs.Trace.t ->
  ?telemetry:Ft_obs.Telemetry.t ->
  ?on_ready:(unit -> unit) ->
  config ->
  Runner.t ->
  unit
(** Bind, listen, recover the journal, run to shutdown and unlink the
    socket.  An existing socket file
    is probed first: a dead one is reclaimed, a {e live} daemon
    answering on it makes [serve] fail rather than orphan that daemon's
    clients.  [on_ready] fires once the socket is accepting — the hook
    tests and scripts use instead of polling.

    The server reports each request-lifecycle event once: counted by
    {!Ft_obs.Telemetry.count} into [telemetry] (a fresh one if absent)
    and recorded in [trace].  A [stats] reply is
    {!Ft_obs.Telemetry.counters} of [telemetry]'s snapshot — the
    engine's counters too, when the runner's engines share it — followed
    by the gauges [queue_depth], [restarts] (prior incarnations) and
    [poisoned] (quarantined fingerprints).  [telemetry] also accumulates
    the [serve.wait] (blocked in select) and [serve.run] (searching)
    timers. *)
