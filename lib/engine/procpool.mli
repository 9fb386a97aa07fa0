(** A fixed-size pool of forked worker processes — the crash-isolated
    sibling of the domain {!Pool}, and the one substrate behind both
    forked backends ([--backend processes] and [--backend sharded]).

    {!map_chunked} forks its workers {e after} the closure exists, so
    both sides of the protocol share it through fork-time memory and the
    pipes carry only plain data ({!Ipc} frames).  Workers take
    contiguous chunks of slots from one shared cursor — remaining ÷
    (4 · workers) slots, at least 1 and at most 64, so the shrinking
    tail keeps workers balanced — and each holds two chunks in flight,
    so it never waits for the parent.  A worker answers each chunk with
    one frame, and results land by slot, like the domain pool's.

    {2 Crash taxonomy}

    A worker can die by signal (OOM kill, SIGSEGV, a job that SIGKILLs
    its own process, as the engine's chaos hook does), by nonzero exit,
    or by desynchronizing its reply stream (a torn frame).
    All three surface the same way: exactly one slot, the one the worker
    was running, finishes as [Error (Crashed { pid; detail })]; every
    other slot it held but had not answered goes back to the cursor;
    the worker is reaped, and the pool forks a replacement (bounded by a
    respawn budget, since a systematically lethal closure must not
    fork-bomb).  Before each job the worker writes the job's slot to a
    per-worker progress pipe, which the parent drains on every reply and
    reads to EOF on death: the last marker inside the oldest unanswered
    chunk names the casualty, and if no job of that chunk started, its
    first slot is.  The pool never re-runs a crashed slot itself — that
    retry decision (and its determinism argument) belongs to {!Engine}.

    {b Fork vs. domains}: the runtime refuses [Unix.fork] in any process
    that has ever spawned a domain, so a process must commit to one
    backend before any [jobs > 1] domain work runs ([jobs = 1] on the
    domain pool is strictly sequential and spawns none).  The CLI's
    [--backend] flag satisfies this naturally; tests that mix backends
    run in separate binaries ([test/test_backend.ml]). *)

type crash = { pid : int; detail : string }
(** [detail] is human-readable: ["killed by SIGKILL"], ["exited 3"],
    ["torn frame: short payload (12/96 bytes); killed by SIGKILL"]. *)

type failure =
  | Raised of string
      (** the closure raised inside a healthy worker; payload is
          [Printexc.to_string] of the exception (the worker survives) *)
  | Crashed of crash  (** the worker process itself died *)

val crash_to_string : crash -> string
val failure_to_string : failure -> string

val map_chunked :
  workers:int ->
  ?on_delta:('d -> unit) ->
  ?on_result:(int -> ('b, failure) result -> unit) ->
  (unit -> (int -> 'b) * (unit -> 'd)) ->
  int ->
  ('b, failure) result array
(** [map_chunked ~workers session n] computes slots [0 .. n-1] on up to
    [workers] forked processes and returns per-slot results in slot
    order.

    In a worker, [session ()] runs once per chunk and returns
    [(job, close)]: [job i] computes slot [i], and [close ()], called
    after the chunk's last job, returns the chunk's {e delta} — whatever
    the chunk's jobs accumulated that the parent must adopt (the engine
    ships cache, quarantine, telemetry and trace news this way).  Both
    run in the child, so they may close over anything; only [job]'s
    results and the delta must be Marshal-safe plain data.

    In the parent, as each chunk's reply arrives, [on_delta] receives
    the delta first, then [on_result] fires once per slot of the chunk;
    a crash fires [on_result] once, for its one casualty.  A callback
    that raises aborts the map (the workers are killed).
    @raise Invalid_argument if [workers < 1]. *)

val map :
  workers:int ->
  ?on_result:(int -> ('b, failure) result -> unit) ->
  ('a -> 'b) ->
  'a array ->
  ('b, failure) result array
(** [map ~workers f a] is {!map_chunked} over [a]'s indices with [f]
    per element and no delta.  The array is captured by fork, so [f] may
    close over anything; only its {e result} must be Marshal-safe plain
    data.
    @raise Invalid_argument if [workers < 1]. *)
