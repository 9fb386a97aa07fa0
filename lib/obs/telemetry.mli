(** Run telemetry for the evaluation engine and the tuning daemon:
    counters, per-phase wall-clock timers and a progress callback.

    Counters move only through {!count}, the one rule mapping an
    {!Event.t} to the counter it bumps.  The engine and the daemon each
    report a fact once, as an event they count here and record in their
    {!Trace}; [funcy report] re-counts an exported trace with the same
    rule ({!of_events}), and the daemon's [stats] reply is {!counters}
    of the live snapshot.

    All counters are [Atomic.t] and the timer table is mutex-protected, so
    one telemetry value can be shared by every worker domain of the
    engine's pool, and read or counted into from inside a progress
    callback.  Counters are observational only — no search result ever
    depends on them — which is why they are allowed to vary with worker
    scheduling (e.g. two workers racing on the same cache key record one
    hit and one miss in either order) while measured values do not. *)

type snapshot = {
  builds : int;  (** compile+link jobs actually performed (cache misses) *)
  runs : int;  (** binary executions actually performed *)
  cache_hits : int;
  cache_misses : int;
  retries : int;  (** jobs re-submitted after a transient failure *)
  build_failures : int;  (** compile jobs rejected by the compiler (ICEs) *)
  crashes : int;  (** runtime crashes observed (before any retry) *)
  wrong_answers : int;  (** output-validation mismatches (miscompiles) *)
  timeouts : int;  (** runs whose (simulated) elapsed time tripped the budget *)
  worker_crashes : int;
      (** process-backend workers that died mid-job (signal, exit, torn
          frame) — counted per crashed attempt, before any retry *)
  outliers : int;  (** heavy-tailed measurement outliers injected *)
  quarantined : int;  (** configurations added to the quarantine list *)
  quarantine_hits : int;  (** evaluations skipped via the quarantine list *)
  received : int;  (** daemon: tune requests that parsed *)
  admitted : int;  (** daemon: requests that opened a fresh search group *)
  coalesced : int;  (** daemon: requests that joined a pending or running group *)
  memoized : int;  (** daemon: requests answered from the result memo *)
  rejected : int;  (** daemon: typed rejections, unparseable frames included *)
  groups_completed : int;  (** daemon: searches finished, failed ones included *)
  expired : int;  (** daemon: waiting requests whose deadline lapsed *)
  cancelled : int;  (** daemon: groups abandoned by every subscriber *)
  replayed : int;  (** daemon: journaled requests re-enqueued at boot *)
  timers : (string * float) list;  (** phase → accumulated wall seconds *)
}

type t

val create : unit -> t

val count : t -> Event.t -> unit
(** The counting rule.  [Cache_hit], [Cache_miss], [Build_done],
    [Run_done], [Retry], [Worker_crashed], [Outlier], [Quarantine_added]
    and [Quarantine_hit] each bump their counter by one; a
    [Fault_injected] bumps the counter its kind names (["ice"],
    ["crash"], ["wrong-answer"], ["timeout"]).  Of the daemon's events,
    [Request_received], [Request_admitted], [Request_coalesced],
    [Request_cached] ([memoized]), [Request_rejected], [Group_finished]
    ([groups_completed]), [Request_expired], [Group_cancelled]
    ([cancelled]) and [Request_replayed] each bump theirs.  A [Timer]
    adds its seconds to the named timer.  Every other event moves
    nothing. *)

val of_events : Event.t list -> t
(** A fresh telemetry that has {!count}ed each event, in order. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t phase f] runs [f], accumulating its duration on the
    monotonic {!Ft_util.Clock} onto [phase] (even if [f] raises).
    Phases timed inside parallel workers accumulate CPU-side: their sum
    may exceed elapsed wall time.  No event is recorded: the daemon's
    ["serve.run"] and ["serve.wait"] timers use this, where an event per
    idle turn would flood its trace. *)

val set_progress : t -> (completed:int -> unit) -> unit
(** Install a progress callback, invoked (serialized) after every engine
    job completes.  It may {!count} and take {!snapshot}s of the same
    telemetry. *)

val tick : t -> unit
(** Mark one job complete and fire the progress callback, if any. *)

val completed : t -> int
(** Jobs completed so far (the running count {!tick} maintains).  The
    selfcheck oracle reads this off a finished reference run to derive
    its kill points. *)

val snapshot : t -> snapshot

val absorb : t -> snapshot -> unit
(** Add every counter (and timer) of a shipped worker snapshot onto [t].
    The processes backend's merge step: workers count into a private
    telemetry and ship the snapshot home with their result. *)

val counters : snapshot -> (string * int) list
(** Every integer counter, named as its field, in field order: the
    daemon's [stats] reply before its gauges. *)

val faults : snapshot -> int
(** Total injected faults observed: build failures + crashes + wrong
    answers + timeouts (outliers are degraded measurements, not faults). *)

val render : t -> string
(** Multi-line human-readable summary (the [--stats] output).  The fault /
    quarantine block only appears when something actually failed, so
    fault-free runs print exactly what they always did. *)
