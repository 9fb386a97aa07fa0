(** Content-addressed measurement cache.

    The engine memoizes the {e noise-free} summary of every binary it has
    evaluated, keyed by a digest of everything that determines the binary
    and its execution: program, platform, compiler vendor, input size and
    steps, the full per-module CV assignment (or the single whole-program
    CV), and the instrumentation flag.  Measurement noise is deliberately
    {e outside} the cache — it is drawn per job from the job's own RNG
    stream — so a cache hit returns bit-identical results to a recompute,
    and warming the cache can never change a search's outcome.

    The table is mutex-protected; concurrent workers racing on one key at
    worst both compute the (identical, pure) summary and one write wins.

    {2 On-disk formats}

    {!save} and {!sync} write one format, the v3 log of {!Cache_codec}:
    append-only, checksummed frames holding summaries and, for a
    {!Checkpoint}, quarantine entries.  The loader also reads v2 binary
    and v1 text files, picked by the magic first line, so old
    checkpoints and [--warm-start] files keep loading, and the first
    {!sync} against one migrates it to v3 in place.  All read back
    bit-exactly, so a re-run of yesterday's experiment, or a greedy run
    sharing a collection with CFR, never re-measures a binary it has
    seen. *)

type t

val create : unit -> t

val digest : string -> string
(** Digest of a canonical key description (hex MD5); the engine builds the
    canonical string, this fixes the addressing scheme. *)

val find : t -> string -> Ft_machine.Exec.summary option
val add : t -> string -> Ft_machine.Exec.summary -> unit
val length : t -> int

val bindings : t -> (string * Ft_machine.Exec.summary) list
(** All entries, sorted by key (deterministic; used by [save] and tests). *)

val save : t -> path:string -> unit
(** Write every entry to [path] as a v3 log of summaries, atomically:
    the table is written to a temporary file in the same directory and
    renamed over [path], so a crash mid-save can never leave a truncated
    cache on disk ({!Atomic_file}).
    @raise Invalid_argument if a key, region name or loop count exceeds
    the codec's 16-bit length fields. *)

exception Corrupt of { path : string; line : int; reason : string }
(** Raised by {!load} when the file is not an engine cache at all (missing
    or invalid magic header), with the offending line number. *)

val load : ?warn:(line:int -> reason:string -> unit) -> string -> t
(** [load path] reads the summaries of a v3 log or a v2 or v1 cache,
    auto-detected from the magic line; quarantine records are left out.
    Malformed entries {e after} a valid magic header (torn writes, bit
    rot, failed checksums) are skipped, reporting each to [warn] with its
    line number — for binary files, the record ordinal offset by the
    header line — and a reason (default: one warning line on stderr),
    rather than aborting the load: a partially corrupt cache still
    resumes everything that survived.  A tail not sealed by its commit
    marker (text: the terminating newline; binary: the full
    length-prefixed frame) is treated as torn and skipped too, {e even
    if it would parse}: a float truncated mid-digits is a different
    valid float, so only fully committed records are trusted.  Before
    reading, stale {!Atomic_file} temporaries around [path] (orphans of
    writers SIGKILLed mid-save, older than the grace period) are swept
    under the lock {!sync} takes — only when litter actually exists.
    @raise Corrupt when the header is missing, wrong or truncated;
    [Sys_error] if the file is unreadable. *)

val merge : t -> from:t -> int
(** Adopt every binding of [from] that [t] lacks (existing keys win —
    values for equal keys are bit-identical by the determinism argument,
    so precedence is moot).  Returns the number adopted. *)

type synced = {
  adopted : int;  (** summaries adopted {e from} the file *)
  wrote : bool;
      (** the file changed: entries appended, a torn tail cut, or a
          rewrite (a compaction, a migration, or the file's creation) *)
}

val sync :
  ?warn:(line:int -> reason:string -> unit) ->
  t ->
  quarantine:Quarantine.t ->
  path:string ->
  synced
(** Reconcile [t] and [quarantine] with the log at [path]: adopt every
    on-disk summary and quarantine entry they lack, then make the file
    hold the union of both kinds.  The one writer of the log:
    {!Checkpoint} calls it every N events and at exit, and any number of
    concurrent funcy processes can sync against one file with every
    committed entry surviving.  Runs under an exclusive advisory lock on
    the sidecar [path ^ ".lock"] (compaction replaces the data file by
    rename, so its inode cannot carry the lock), taken after a
    process-wide mutex, since the advisory lock does not exclude
    domains.  Returns what it did: see {!synced}.

    This is O(delta), journal-style.  The first sync against a file
    reads it once (migrating a v1 or v2 file to v3 in place).  Every
    later sync reads only the bytes appended since, truncates any torn
    tail left by a writer killed mid-append (safe under the exclusive
    lock), and appends only entries the file does not already hold,
    with one fsync; a sync with nothing to add writes nothing.  The
    cache tells each synced file of its new keys as they arrive, so no
    sync walks the table; the quarantine, a small table, is walked only
    when it has grown.  The file is compacted — atomically rewritten
    with one record per entry — when a scan finds malformed records or
    when duplicate frames from racing appenders exceed twice the
    distinct entries.  A file replaced or truncated behind our back (the
    dev/ino pair changes, or the size shrinks), or a quarantine other
    than last time's, means a full re-read.  The held lock also pays for
    an {!Atomic_file.sweep} of stale temporaries.

    @raise Corrupt as {!load}. *)
