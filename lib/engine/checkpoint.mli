(** Checkpoint/resume for long searches.

    A checkpoint is one cache log ({!Cache_codec} v3) holding the
    measurement {!Cache} and the {!Quarantine} list, plus the sidecar
    [path ^ ".lock"] its writers lock.  The engine records every
    state-changing event (a new summary computed or a key quarantined)
    with {!tick}, and every [every] events {!Cache.sync} appends the
    entries the log lacks, so a sync costs what the run added since the
    last one.  Because every search is a deterministic replay from its
    seed and the cache/quarantine only remove redundant work (never
    change a value), resuming a killed [funcy tune --checkpoint] is
    simply: reload the log, re-run the same command, and the search
    fast-forwards to a bit-identical final result.

    The log is safe to share: processes with one [--checkpoint] path
    each sync under the sidecar lock, adopting each other's entries, and
    a writer killed mid-append costs at most its own torn tail.  A
    checkpoint from before the log format (a v1 or v2 cache) resumes its
    summaries and is rewritten as a log at its first sync; its
    [.quarantine] and [.commit] files are ignored, as replay re-derives
    the quarantine. *)

type t

val create : path:string -> ?every:int -> unit -> t
(** [every] (default 64) is the number of recorded events between
    syncs.  Nothing is written until the first sync. *)

val path : t -> string

val load :
  ?warn:(line:int -> reason:string -> unit) ->
  t ->
  (Cache.t * Quarantine.t) option
(** Adopt the log into a fresh cache and quarantine, or [None] when there
    is nothing to resume from.  This is the first {!Cache.sync} of the
    returned cache, so it leaves the sync state behind: the first
    {!flush} after a resume reads and writes only what changed since.
    Malformed records are skipped through [warn], and a torn or
    pre-v3 log is compacted to v3 on the spot.
    @raise Cache.Corrupt if the file exists but is not a cache at all. *)

val tick : t -> cache:Cache.t -> quarantine:Quarantine.t -> bool
(** Record one state-changing event; syncs the log when [every] events
    have accumulated since the last sync, returning [true] iff this call
    synced {e and} the sync changed the log, so the engine traces only
    saves that happened.  Thread-safe: the event counter is its own
    fine-grained lock, and concurrent due syncs from pool workers
    serialize in {!Cache.sync}. *)

val flush : t -> cache:Cache.t -> quarantine:Quarantine.t -> bool
(** Unconditional sync (called at the end of a run, and by the
    [--die-after] crash hook just before the simulated kill); [true] iff
    it changed the log.  A resume that added nothing leaves the log
    untouched and answers [false]. *)
