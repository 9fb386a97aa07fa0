(** Run telemetry for the evaluation engine: counters, per-phase wall-clock
    timers and a progress callback.

    All counters are [Atomic.t] and the timer table is mutex-protected, so
    one telemetry value can be shared by every worker domain of a
    {!Pool}.  Counters are observational only — no search result ever
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
  timers : (string * float) list;  (** phase → accumulated wall seconds *)
}

type t

val create : unit -> t
val reset : t -> unit

val build : t -> unit
val run : t -> unit
val cache_hit : t -> unit
val cache_miss : t -> unit
val retry : t -> unit
val build_failure : t -> unit
val crash : t -> unit
val wrong_answer : t -> unit
val timeout : t -> unit
val worker_crash : t -> unit
val outlier : t -> unit
val quarantine : t -> unit
val quarantine_hit : t -> unit

val add_time : t -> string -> float -> unit
(** Accumulate [seconds] onto a named phase timer. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t phase f] runs [f], accumulating its duration on the
    monotonic {!Ft_util.Clock} onto [phase] (even if [f] raises).
    Phases timed inside parallel workers accumulate CPU-side: their sum
    may exceed elapsed wall time. *)

val set_progress : t -> (completed:int -> expected:int -> unit) -> unit
(** Install a progress callback, invoked (serialized) after every engine
    job completes. *)

val expect : t -> int -> unit
(** Announce [n] more jobs, so progress callbacks can show a total. *)

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

val faults : snapshot -> int
(** Total injected faults observed: build failures + crashes + wrong
    answers + timeouts (outliers are degraded measurements, not faults). *)

val render : t -> string
(** Multi-line human-readable summary (the [--stats] output).  The fault /
    quarantine block only appears when something actually failed, so
    fault-free runs print exactly what they always did. *)
