(** Checkpoint/resume for long searches.

    A checkpoint is a pair of atomic snapshots — the measurement {!Cache}
    at [path] and the {!Quarantine} list at [path ^ ".quarantine"] —
    refreshed every [every] state-changing engine events (new summaries
    computed or keys quarantined).  Because every search is a
    deterministic replay from its seed and the cache/quarantine only
    remove redundant work (never change a value), resuming a killed
    [funcy tune --checkpoint] is simply: reload both snapshots, re-run the
    same command, and the search fast-forwards through everything already
    measured to a bit-identical final result.

    {2 Commit protocol}

    Each individual file is written with {!Atomic_file.write}, but a save
    touches {e three} files, so a crash mid-save can still tear the set.
    Saves are therefore one serialized transaction in a fixed order:

    + the quarantine snapshot ([path ^ ".quarantine"]),
    + the cache snapshot ([path]),
    + a commit record ([path ^ ".commit"]) holding the digests of both.

    Quarantine-before-cache is the safe tear direction: a crash between
    the two leaves an {e older} cache with a {e newer} quarantine, and
    deterministic replay re-measures the missing summaries while the
    extra quarantine entries are exactly what re-evaluation would have
    re-derived.  (The opposite order could pair a new cache with a stale
    quarantine and resurrect a condemned configuration.)  {!load} checks
    the snapshots against the commit record and reports any mismatch —
    a torn save, a hand-edited file — through [warn] before resuming. *)

type t

val create :
  path:string -> ?every:int -> ?on_write:(string -> unit) -> unit -> t
(** [every] (default 64) is the number of recorded events between
    snapshots.  Nothing is written until the first event.  The cache
    snapshot is written in {!Cache.save}'s binary format; {!load} also
    reads a v1 text snapshot, so a text-era checkpoint resumes and is
    rewritten as binary at the next save.  [on_write] is a test hook,
    called inside the save transaction after each file reaches disk,
    with the stage name ["quarantine"], ["cache"] or ["commit"] —
    crash-injection tests raise from it to tear a save at a chosen
    point. *)

val path : t -> string
val quarantine_path : t -> string

val commit_path : t -> string
(** The commit record ([path ^ ".commit"]): magic line, then the hex MD5
    of the cache and quarantine snapshot files, written last. *)

val exists : t -> bool
(** Does a cache snapshot already exist on disk (i.e. can we resume)? *)

val load :
  ?warn:(line:int -> reason:string -> unit) ->
  t ->
  (Cache.t * Quarantine.t) option
(** Reload the snapshots, or [None] when there is nothing to resume from.
    A missing quarantine file (e.g. pre-fault checkpoints) yields an empty
    quarantine.  Malformed entries are skipped through [warn].  Commit
    protocol violations — a missing or malformed commit record, or a
    snapshot whose digest does not match it — are also reported through
    [warn] (with [line = 0]); the load still proceeds, because replay
    heals any tear the protocol's write order can produce.
    @raise Cache.Corrupt / Quarantine.Corrupt if a file exists but is not
    a snapshot at all. *)

val tick : t -> cache:Cache.t -> quarantine:Quarantine.t -> bool
(** Record one state-changing event; saves both snapshots (as one commit
    transaction) when [every] events have accumulated since the last save
    (returning [true] iff this call saved, so the engine can trace the
    save).  Thread-safe: the event counter is its own fine-grained lock,
    and concurrent due-savers serialize on a dedicated save lock so
    interleaved writes can never pair a cache from save A with a
    quarantine from save B. *)

val flush : t -> cache:Cache.t -> quarantine:Quarantine.t -> unit
(** Unconditional snapshot (called at the end of a run, and by the
    [--die-after] crash hook just before the simulated kill). *)
