(** Which execution substrate runs a batch of engine jobs.

    [Domains] (the default) is the original shared-memory {!Pool}: jobs
    run on OCaml 5 domains inside the engine's process, sharing its
    cache, quarantine, telemetry and trace directly.  [Processes] and
    [Sharded] both run each batch on the one {!Procpool} of forked
    workers — [--jobs] workers for [Processes], [--nodes] for [Sharded]
    — fed contiguous chunks of the batch from one shared cursor: a
    crashing or leaking evaluation takes down only its worker, never the
    search, and the failure surfaces as a typed
    {!Engine.job_outcome.Worker_crashed} that flows through the engine's
    retry/quarantine machinery.  Each chunk ships its cache, quarantine,
    telemetry and trace news home as one Marshal frame.  All backends
    compute bit-identical results (and byte-identical logical-clock
    traces): the choice trades isolation and address-space hygiene
    against fork/IPC overhead, never outcomes. *)

type t = Domains | Processes | Sharded

val default : t
(** [Domains] — single-process, so all historical output is unchanged. *)

val all : t list

val to_name : t -> string
(** ["domains"] / ["processes"] / ["sharded"] (the [--backend]
    spelling). *)

val of_name : string -> t option
