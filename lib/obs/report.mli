(** Offline run summaries from exported traces — the [funcy report]
    engine.

    A report is computed purely from a JSONL trace file ({!Export}), so a
    run can be analyzed on a different machine, long after the fact:

    - per-phase breakdown (events, jobs, faults and — for wall-clock
      traces — seconds per Algorithm-1 phase);
    - cache hit-rate over time (from the hit/miss split, or re-derived
      from [cache_query] first-occurrences for logical traces, which by
      construction equals what a sequential run would have recorded);
    - the convergence curve: best-so-far end-to-end seconds vs completed
      evaluations;
    - the fault/retry/quarantine table;
    - per-loop focused pool sizes (CFR's top-X pruning decisions);
    - the engine counters, re-counted with the live engine's own rule
      ({!Telemetry.of_events}).  A logical trace is first replayed as the
      sequential schedule its canonical order stands for: the first query
      of a key misses, builds and runs; later queries hit. *)

type entry = { ts : float; event : Event.t }

type t = { clock : string; entries : entry list }
(** A parsed trace: entries in file (= canonical) order. *)

val load : string -> (t, string) result
(** Read a JSONL trace written by {!Export.write_jsonl}.  [Error]
    explains the first malformed line, a missing/foreign header, or an
    event-count mismatch with the header. *)

val render : t -> string
(** The multi-section plain-text report. *)
