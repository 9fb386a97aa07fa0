(** A process-wide domain worker pool.

    Jobs are claimed from a shared cursor by [min jobs n] workers, clamped
    to [Domain.recommended_domain_count], and their results are written
    back by {e submission index}, so the output order is always the input
    order no matter which worker finishes first.  The calling domain is
    worker zero.  The other workers are helper domains ([Domain.spawn],
    OCaml 5 — no external dependency) spawned once, on the first batch
    that needs them, and parked between batches, so a batch costs one
    wake-up rather than a spawn and a join.  One batch uses the helpers
    at a time: a call made while they are busy (a nested call from inside
    a job, or a second domain calling concurrently) runs its batch in the
    calling domain.  With [jobs = 1] the pool is a plain sequential
    [Array.map], which is the default everywhere so single-core
    behaviour and CLI output are unchanged, and no domain is spawned.

    The pool makes no determinism promise by itself — that is the engine's
    job: engine jobs carry their own independent RNG streams, so the
    {e values} computed are identical at any worker count and only the
    completion order varies. *)

exception Worker_failure of exn
(** Raised by {!map} once every claimed job has finished, wrapping the
    first exception any job raised; jobs not yet claimed are abandoned.
    A batch with [jobs = 1] or fewer than two elements runs as a plain
    [Array.map] and lets the exception escape unwrapped. *)

exception Abort of string
(** Deliberate whole-computation cancellation.  Raise it from a job (or
    from a progress callback running inside one) to abandon the batch:
    it is {!fatal}, so {!map_result} will not capture it as a per-item
    [Error]. *)

val fatal : exn -> bool
(** Exceptions no layer may demote to a per-job outcome: [Out_of_memory],
    [Stack_overflow], [Sys.Break] and {!Abort}. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f a] applies [f] to every element on up to [jobs] workers
    and returns results in submission order.
    @raise Invalid_argument if [jobs < 1]. *)

val map_result : jobs:int -> ('a -> 'b) -> 'a array -> ('b, exn) result array
(** Partial-results mode: like {!map}, but each job's exception is
    captured in its own slot ([Error e]) instead of aborting the batch, so
    in-flight successes are preserved and ordering stays stable.  Only
    {!fatal} exceptions abort the batch (raising {!Worker_failure} from
    the parallel path, or escaping directly when sequential). *)
