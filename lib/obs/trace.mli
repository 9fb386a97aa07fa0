(** The in-memory trace buffer: where events accumulate during a run.

    {2 Recording}

    A trace is shared by the main thread and every worker domain of the
    engine pool.  To keep recording cheap and contention-free, events land
    in one of a fixed set of mutex-sharded buffers keyed by the recording
    domain; ordering is reconstructed afterwards (see below), never from
    arrival time.

    Every event reaches a trace through {!emit}, which takes a [t option]
    and records nothing on [None], so call sites stay one-liners and a
    trace-less run records nothing.

    {2 Ordering and determinism}

    Each event is stamped with a three-part key [(serial, job, seq)]:

    - main-thread events draw [serial] from an atomic counter (the main
      thread is sequential, so this order is deterministic) with
      [job = -1];
    - a batch handed to the pool takes {e one} serial for all its jobs;
      within it each job is identified by its submission index [job], and
      its events by a per-job sequence number [seq].

    Sorting by this key yields the {e canonical order}: exactly the order
    a sequential ([--jobs 1]) run would have recorded.  Because each
    engine job's computation is a pure function of the job description,
    the events a job emits are schedule-independent, so the sorted event
    list — and hence the exported logical-clock trace bytes — is
    bit-identical at any worker count.

    {2 Clock modes}

    [Wall] stamps events with monotonic seconds since trace creation and
    records every event, so {!Telemetry.of_events} re-counts a wall trace
    to the live counters.  [Logical] stamps nothing but the canonical
    order itself and records each event as {!Event.logical} projects it:
    the schedule-dependent events are dropped and cache lookups degrade
    to {!Event.Cache_query}, making the exported bytes reproducible. *)

type clock = Wall | Logical

val clock_name : clock -> string
(** ["wall"] / ["logical"]. *)

val clock_of_name : string -> clock option

type t

val create : ?clock:clock -> unit -> t
(** A fresh, empty trace ([clock] defaults to [Wall]). *)

val clock : t -> clock

type stamped = {
  serial : int;  (** main-thread sequence number, or the batch's *)
  job : int;  (** submission index within the batch; [-1] on the main thread *)
  seq : int;  (** per-job event sequence number *)
  ts : float;  (** seconds since trace creation ([Wall]); [0.] in [Logical] *)
  event : Event.t;
}

val events : t -> stamped list
(** All recorded events in canonical [(serial, job, seq)] order. *)

val epoch : t -> float
(** The trace's creation time (absolute [Unix.gettimeofday]), i.e. what
    [Wall] timestamps are relative to.  A worker process ships this with
    its events so {!inject} can rebase them onto the parent's epoch. *)

val inject : t -> epoch:float -> stamped list -> unit
(** Adopt stamps recorded by a worker's shadow trace (processes backend).
    The canonical keys are preserved verbatim — the parent allocated the
    batch serial before forking, so they already sort correctly — and
    [Wall] timestamps are rebased from the shadow's [epoch] onto this
    trace's; [Logical] stamps are untouched (all zero). *)

val length : t -> int

(* -- structure: batches, job scopes, phase spans ----------------------- *)

val batch : t option -> size:int -> int
(** Record a {!Event.Batch_submitted} and return the batch serial to pass
    to {!in_job} (0 when the trace is [None] — the value is then unused). *)

val in_job : t option -> batch:int -> index:int -> (unit -> 'a) -> 'a
(** Run a job's body with emissions attributed to [(batch, index)] via
    domain-local state.  Scopes nest save/restore, so a sequential pool
    running jobs on the main domain is handled too. *)

val span : t option -> Event.phase -> (unit -> 'a) -> 'a
(** Bracket [f] with {!Event.Phase_begin}/{!Event.Phase_end} (emitted even
    if [f] raises). *)

(* -- recording --------------------------------------------------------- *)

val emit : t option -> Event.t -> unit
(** Record one event: nothing on [None]; the event itself under [Wall];
    its {!Event.logical} projection, if any, under [Logical]. *)

val job_started : t option -> key:string -> unit

val job_finished :
  t option -> key:string -> outcome:string -> elapsed_s:float option -> unit
(** {!emit} of {!Event.Job_started} and {!Event.Job_finished}, built only
    when a trace is attached: no counter reads them, so an untraced job
    need not allocate them. *)

val cache_lookup : t option -> key:string -> hit:bool -> unit
(** {!emit} of {!Event.Cache_hit} or {!Event.Cache_miss}.  Kept for
    perfbench's micro suite; the engine emits the events itself. *)

(** {2 Resume-invariant normalization}

    The selfcheck oracle compares the trace of an uninterrupted run with
    the trace of a killed-and-resumed one.  Those traces are {e not}
    byte-identical, for exactly two documented reasons, and normalization
    removes exactly them:

    - {b schedule detail}: what the cache already held and who raced
      whom — events are projected through {!Event.logical}, exactly as a
      [Logical] trace records them;
    - {b the resume boundary}: a key whose fault verdict was quarantined
      before the kill replays after resume as a single [Quarantine_hit]
      where the original run recorded the [Fault_injected]/[Retry]
      evidence for the same verdict — all three are dropped, leaving the
      schedule-independent [Job_finished] outcome (which must and does
      agree) to carry the comparison.  For the same reason, [Cache_query]
      events whose key satisfies [is_quarantined] (the caller passes the
      run's {e final} quarantine membership — itself compared separately,
      byte-for-byte) are dropped: deriving a crash/timeout/miscompile
      verdict queries the cache on the way to the fault, replaying it
      from a snapshot does not.

    The server's request-lifecycle events are dropped too: they describe
    live traffic, which no determinism contract covers.

    Everything else — batch structure, job starts/finishes with outcomes,
    cache queries, outlier degradations, phase spans, prune decisions,
    adaptive-sh rung decisions — must be byte-identical between a fresh
    and a resumed run, at any [--jobs] count, on either backend. *)

val resume_invariant : stamped -> bool
(** Does this event's {e kind} survive normalization?  (The per-key
    [Cache_query] rule needs quarantine context this predicate does not
    have; it treats all cache queries as invariant.) *)

val normalized_lines : ?is_quarantined:(string -> bool) -> t -> string list
(** The resume-invariant skeleton of the trace: events in canonical
    order, filtered and projected as above, each rendered as a compact
    JSON line (no stamps — sequence numbers shift where events were
    dropped, and position in the list already encodes the order). *)
