(** Differential checkpoint/resume equivalence oracle.

    The engine's whole restartability story rests on one claim: a search
    killed at {e any} evaluation boundary and resumed from its checkpoint
    reaches exactly the state an uninterrupted run reaches.  This module
    checks the claim instead of assuming it.  For one (search, engine
    configuration) pair it runs:

    + a {b reference} run — fresh stores, no checkpoint, logical trace;
    + for each kill point [n]: a {b doomed} run whose checkpoint is
      flushed at exactly [n] completed evaluations ([--die-after]
      semantics — the run then continues but everything after the flush
      is discarded, which is byte-equivalent on disk to killing the
      process at the flush), followed by a {b resumed} run reloading that
      log through {!Checkpoint.load}.

    It then asserts, for every resume: byte-identical rendered result,
    cache, quarantine, and resume-invariant normalized logical trace
    ({!Ft_obs.Trace.normalized_lines}).  Any difference is reported as a
    structured diff.

    The oracle is parameterized over engine construction and the search
    itself (this library sits below the search layers), so the CLI and
    the test suites supply both. *)

type divergence = {
  stage : string;  (** the kill point, e.g. ["kill\@3"] *)
  part : string;
      (** ["result"], ["cache"], ["quarantine"], ["trace"],
          ["checkpoint"] *)
  diff : string list;  (** human-readable diff lines *)
}

type outcome = {
  label : string;
  evaluations : int;  (** engine jobs the reference run completed *)
  kill_points : int list;  (** the boundaries actually exercised *)
  checks : int;  (** equivalence assertions performed *)
  divergences : divergence list;  (** empty iff the oracle passed *)
}

val run :
  ?kill_points:int list ->
  scratch:string ->
  label:string ->
  make_engine:
    (cache:Cache.t ->
    quarantine:Quarantine.t ->
    checkpoint:Checkpoint.t option ->
    trace:Ft_obs.Trace.t option ->
    Engine.t) ->
  search:(Engine.t -> string) ->
  unit ->
  outcome
(** [run ~scratch ~label ~make_engine ~search ()] executes the oracle.

    [make_engine] must build a fresh engine around the given stores each
    time it is called (same jobs/backend/policy every time); [search] must
    run the {e same} deterministic search on it and render its result as a
    string (bit-exact float formatting, e.g. [%h], so renderings compare
    byte-for-byte).  [scratch] is an existing directory for the kill
    points' checkpoint logs; the caller owns its lifetime.  [kill_points]
    (default: first, middle and last boundary) are clamped to the
    reference run's [1..evaluations] range and deduplicated.  Caches and
    quarantines are compared as lines rendered in memory from
    {!Cache.bindings} and {!Quarantine.bindings} — the key, then [%h]
    total, non-loop and per-loop seconds, or a reason letter and its
    detail with a timeout in [%h] — rather than as checkpoint bytes, so a
    divergence diff names the differing entry. *)

val passed : outcome -> bool

val render : outcome -> string
(** Multi-line report: one summary line, per-check status, and every
    divergence's diff.  Ends in [PASS] or [FAIL]. *)
