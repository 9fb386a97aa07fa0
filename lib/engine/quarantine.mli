(** The per-CV quarantine list: known-bad builds the engine stops retrying.

    When a build exhausts its retries (or fails in a way retries can never
    fix — an ICE or a miscompile), its cache key is quarantined together
    with the failure that condemned it.  Subsequent jobs on the same key
    return that recorded failure immediately instead of burning more
    attempts.  Because injected faults are a pure function of the fault
    seed and the key ({!Ft_fault.Fault}), a quarantine hit returns exactly
    the outcome a re-evaluation would have computed, so quarantining never
    changes search results — it only removes wasted work.  The table is
    mutex-protected and shared by all worker domains.

    The list persists as records of the checkpoint's cache log
    ({!Cache.sync}, {!Checkpoint}); this module holds no file format of
    its own. *)

type reason =
  | Build_failed of string  (** the module whose compilation ICEd *)
  | Crashed of string  (** runtime crash; the payload is a diagnostic *)
  | Wrong_answer  (** output validation failed: miscompiled binary *)
  | Timed_out of float  (** simulated elapsed seconds when killed *)

type t

val create : unit -> t
val add : t -> string -> reason -> unit
val find : t -> string -> reason option
val length : t -> int

val bindings : t -> (string * reason) list
(** Sorted by key, for deterministic persistence and comparison. *)
