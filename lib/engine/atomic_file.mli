(** Crash-safe file writes for engine persistence.

    [write ~path emit] writes through [emit] into a fresh temporary file in
    the {e same directory} as [path] (so the final rename never crosses a
    filesystem) and atomically renames it over [path].  A crash at any
    point leaves either the previous file intact or the complete new one —
    never a truncated mixture — which is the property {!Cache.save} and
    the compaction of a cache log by {!Cache.sync} rely on.  The rename
    is not preceded by an fsync, so a crash of the machine (not just the
    process) may still expose an empty or partial new file.

    The one thing a process crash {e can} leak is the temporary itself: a
    writer SIGKILLed between creating it and the rename leaves a
    [.<basename><rand>.tmp] orphan that no in-process cleanup will ever
    reclaim.  {!sweep} removes such orphans once they are older than a
    grace period — old enough that no live writer can still own them —
    and {!Cache} runs it under the sidecar lock on [load]/[sync], so a
    long-lived shared checkpoint log doesn't accumulate litter. *)

val write : path:string -> (out_channel -> unit) -> unit
(** @raise Sys_error as [open_out]/[Sys.rename] would; the temporary file
    is removed on any failure. *)

val default_grace_s : float
(** 300 s: how old a temporary must be before {!sweep} treats it as
    crash litter rather than a write in flight. *)

val stale_tmp_files : ?grace_s:float -> path:string -> unit -> string list
(** The temporaries of [path] (files named [.<basename>*.tmp] in its
    directory) whose mtime is at least [grace_s] (default
    {!default_grace_s}) in the past.  Read-only: lets callers check for
    litter before taking a lock to remove it. *)

val sweep : ?grace_s:float -> path:string -> unit -> int
(** Remove every {!stale_tmp_files} entry, returning how many were
    removed.  Never touches [path] itself, fresh temporaries, or
    anything not matching the temporary naming pattern; removal races
    are tolerated (the loser counts nothing).  Callers that share [path]
    across processes should hold the sidecar lock, as {!Cache} does. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents (mode 0o755), like
    [mkdir -p]; an existing path is left as it is.  A creation race with
    another process is tolerated.
    @raise Unix.Unix_error if a component cannot be created (for
    instance a parent is a regular file, or permission is denied). *)
